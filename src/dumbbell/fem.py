"""Axisymmetric finite elements for the weighted eigenproblem -Du = l p u.

All forms carry the meridian volume measure rho^(N-2) drho dx1 (the constant
angular factor omega_(N-2) is omitted consistently; it cancels in every
eigenvalue, Rayleigh quotient and normalized field).  P2 triangles on a
MeridianMesh, Dirichlet conditions by elimination to a reduced SPD system,
one sparse factorization helper for every SPD matrix, and the ground state
by shift-invert Rayleigh-Ritz with a float64 inverse-iteration polish, the
package's only eigen algorithm, at one solve a step: u0 takes 12 solves,
a sweep entry 7 (3 for the restricted reference, 4 for the full pair, both
shifted 1e-3 below the profile eigenvalue lam_k0).
Every form goes through one row-block builder, `_assemble_form`, straight
onto the nodes it keeps: the element triplets of each block of kept rows
are summed by scipy's COO-to-CSR step in the order of a whole-mesh
conversion, bit for bit, into CSR arrays sized once, so no all-node
matrix, whole-mesh triplet set or reduced copy is held (`assemble` at
eps = 0.1, level 1 peaks at 15.7 MB traced, against 33.1 MB for the
whole-mesh path).
An AssembledSystem is the one place that reduces, factors and solves a
Dirichlet problem: it holds only the free-node K and M_p, carries its
shift and factors K - shift M_p once in `lu()`, so every eigen step on
it reuses that factor.  Two calls make, use and free a factor of their
own instead, and so may run on a worker thread: `system.solve(load)`
(`solve_dirichlet` returns the harmonic ones as such a job) and
`refine_on_own_factor`.  Why each factor must die on the thread that
made it, and how a worker keeps to that, is written once, in
`pipeline._Worker`.  The process keeps one malloc arena, so that a
second thread holds none of its own: the eps = 0.3 and 0.1 sweep peaked
at 215-219 MB with the helper's arena and 196-199 MB without, against
188 MB with no helper (perfbench's `sweep_direct`).
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field as dfield, replace
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import MeridianMesh, edge_table

__all__ = [
    "WeightModel",
    "Discretization",
    "AssembledSystem",
    "FieldSolution",
    "EigenPair",
    "assemble",
    "factor",
    "solve_dirichlet",
    "eigen_smallest",
    "refine_eigenpair",
    "refine_on_own_factor",
]


# The process keeps one malloc arena, so that a second thread holds none
# of its own: M_ARENA_MAX is glibc's mallopt parameter (malloc.h), and a
# libc without mallopt keeps its own arena policy.  M_MMAP_THRESHOLD is
# fixed at 8 MiB: glibc's dynamic threshold rises to 32 MB after the first
# large free, and the freed factor storage of each sweep entry then stays
# resident in the heap.  With the row-block build, whose blocks stay far
# below 8 MiB, the two calls still lowered perfbench's peak by median:
# sweep_direct 186.4 -> 176.7 MB and profiles 144.2 -> 138.4 MB, at the
# same op time (5 alternated 15 s pairs each); at 1 MiB the eps = 0.3 and
# 0.1 sweep ran 6-31 % slower (4 alternated in-process pairs), as the
# mapped arrays fault their pages in again
_M_ARENA_MAX, _M_MMAP_THRESHOLD = -8, -3
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):
    pass
else:
    _mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    _mallopt.restype = ctypes.c_int
    _mallopt(_M_ARENA_MAX, 1)
    _mallopt(_M_MMAP_THRESHOLD, 8 << 20)


# ----------------------------------------------------------------------------
# Weight model
# ----------------------------------------------------------------------------

def _bump(s):
    """C^1 bump b(s) = (1-s^2)^3 on |s|<1, zero outside."""
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0
    out = np.zeros_like(s)
    t = 1.0 - s[inside] ** 2
    out[inside] = t ** 3
    return out


@dataclass(frozen=True)
class WeightModel:
    """Semidefinite weight p: bump annuli 4 <= |x - e1| <= 5 (amplitude
    a_plus) and 4 <= |x| <= 5 (amplitude a_minus), radial profile
    b(2(|.| - 4.5)).  p vanishes identically on the ball of radius 3 around
    each junction and on the tube, so the eigenproblem weight is
    semidefinite; with a_minus = a_plus/2 the left spectrum is exactly twice
    the right one, which keeps the two half-domain spectra disjoint at the
    ground state."""

    a_plus: float = 1.0
    a_minus: float = 0.5

    def __post_init__(self):
        if not (self.a_plus >= 0 and self.a_minus >= 0):
            raise ValueError("weight amplitudes must be non-negative")

    def __call__(self, x1, rho):
        x1 = np.asarray(x1, dtype=float)
        rho = np.asarray(rho, dtype=float)
        rp = np.hypot(x1 - 1.0, rho)
        rm = np.hypot(x1, rho)
        # each annulus belongs to its own half-domain; the sphere around e1
        # reaches into {x1 < 1} but those points lie outside the dumbbell,
        # so gating by side keeps p smooth on every computational domain
        return (self.a_plus * _bump(2.0 * (rp - 4.5)) * (x1 > 1.0)
                + self.a_minus * _bump(2.0 * (rm - 4.5)) * (x1 < 0.0))

    def support(self, tri):
        """Mask of the triangles (T, 3, 2) whose bounding box reaches a
        nonzero annulus 4 < r < 5 on its side, with 1e-9 slack for
        rounding; p is zero on every other triangle."""
        lo = np.minimum(np.minimum(tri[:, 0], tri[:, 1]), tri[:, 2])
        hi = np.maximum(np.maximum(tri[:, 0], tri[:, 1]), tri[:, 2])
        out = np.zeros(len(tri), dtype=bool)
        for amp, cx, side in ((self.a_plus, 1.0, hi[:, 0] > 1.0 - 1e-9),
                              (self.a_minus, 0.0, lo[:, 0] < 1e-9)):
            if amp > 0:
                # squared offsets of the box's nearest and farthest points
                a, b = lo - (cx, 0.0), hi - (cx, 0.0)
                near = (np.maximum(a, 0.0) - np.minimum(b, 0.0)) ** 2
                far = np.maximum(-a, b) ** 2
                out |= (side & (near[:, 0] + near[:, 1] < 25.0 + 1e-8)
                        & (far[:, 0] + far[:, 1] > 16.0 - 1e-8))
        return out


# ----------------------------------------------------------------------------
# Quadrature on the reference triangle (barycentric points, weights sum to 1)
# ----------------------------------------------------------------------------

def _dunavant(degree: int):
    if degree <= 4:
        orbits = ((0.445948490915965, 0.223381589678011),
                  (0.091576213509771, 0.109951743655322))
    else:
        orbits = ((0.249286745170910, 0.116786275726379),
                  (0.063089014491502, 0.050844906370207))
    pts, wts = [], []
    for a, w in orbits:
        for perm in ((a, a, 1 - 2 * a), (a, 1 - 2 * a, a), (1 - 2 * a, a, a)):
            pts.append(perm)
            wts.append(w)
    if degree > 4:
        b, c = 0.310352451033785, 0.053145049844816
        a = 1.0 - b - c
        w3 = 0.082851075618374
        for perm in ((a, b, c), (a, c, b), (b, a, c), (b, c, a),
                     (c, a, b), (c, b, a)):
            pts.append(perm)
            wts.append(w3)
    return np.asarray(pts), np.asarray(wts)


def _p2_shapes(bary: np.ndarray):
    """Values and barycentric gradients of the 6 P2 shape functions at the
    given barycentric points (q, 3).  Returns (q, 6) and (q, 6, 3)."""
    l1, l2, l3 = bary[:, 0], bary[:, 1], bary[:, 2]
    vals = np.stack([
        l1 * (2 * l1 - 1), l2 * (2 * l2 - 1), l3 * (2 * l3 - 1),
        4 * l1 * l2, 4 * l2 * l3, 4 * l3 * l1,
    ], axis=1)
    q = len(bary)
    grads = np.zeros((q, 6, 3))
    grads[:, 0, 0] = 4 * l1 - 1
    grads[:, 1, 1] = 4 * l2 - 1
    grads[:, 2, 2] = 4 * l3 - 1
    grads[:, 3, 0] = 4 * l2
    grads[:, 3, 1] = 4 * l1
    grads[:, 4, 1] = 4 * l3
    grads[:, 4, 2] = 4 * l2
    grads[:, 5, 2] = 4 * l1
    grads[:, 5, 0] = 4 * l3
    return vals, grads


# ----------------------------------------------------------------------------
# Discretization
# ----------------------------------------------------------------------------

_LOCATE_TOL = 1e-10    # barycentric slack for points on cell boundaries
_LOCATE_PAIRS = 1 << 14  # (point, candidate cell) pairs tested at once


def _cell_geometry(vertices, triangles):
    """Signed areas (ncell,) and barycentric gradients (ncell, 3, 2)."""
    p = vertices[triangles]
    x, y = p[..., 0], p[..., 1]
    det = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
           - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    grads = np.empty((len(triangles), 3, 2))
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        grads[:, k, 0] = (y[:, i] - y[:, j]) / det
        grads[:, k, 1] = (x[:, j] - x[:, i]) / det
    return 0.5 * det, grads


class Discretization:
    """Nodes and cells of the P2 space on a meridian mesh; the forms carry
    the meridian volume weight rho^m with m = measure_exponent = N-2.
    """

    # `order` stays only for perfbench's problem_size, which passes it
    def __init__(self, mesh: MeridianMesh, order: int = 2):
        if order != 2:
            raise ValueError("P2 is the only element")
        self.mesh = mesh
        self.dimension = mesh.dimension
        self.measure_exponent = self.dimension - 2

        # midside node of edge k is node nv + k
        self._edges = edge_table(mesh.triangles)
        v, nv = mesh.vertices, len(mesh.vertices)
        ends = self._edges.edges
        self.nodes = np.vstack([v, 0.5 * (v[ends[:, 0]] + v[ends[:, 1]])])
        self.cells = np.hstack([mesh.triangles, nv + self._edges.side_edge])

        self.n_nodes = len(self.nodes)
        self.area, self.bgrads = _cell_geometry(mesh.vertices, mesh.triangles)
        self._locator = None

    # -- boundary node sets --------------------------------------------------

    def boundary_nodes(self, *tags: str) -> np.ndarray:
        """Sorted node indices, vertices and midside nodes, lying on
        boundary edges with any of the given tags.  A boundary edge has
        one adjacent triangle; it is ``axis`` when both of its ends have
        rho = 0 (the symmetry axis, a natural boundary) and ``dirichlet``
        otherwise: walls, far-field arcs and tube ends all carry Dirichlet
        data."""
        unknown = set(tags) - {"axis", "dirichlet"}
        if unknown:
            raise ValueError(f"unknown boundary tags {sorted(unknown)}")
        ends = self._edges.edges
        on_axis = (self.mesh.vertices[ends, 1] == 0.0).all(axis=1)
        wanted = np.where(on_axis, "axis" in tags, "dirichlet" in tags)
        k = np.flatnonzero((self._edges.counts == 1) & wanted)
        return np.unique(np.concatenate([ends[k].ravel(),
                                         len(self.mesh.vertices) + k]))

    def dirichlet_tags(self) -> tuple[str, ...]:
        """Tags that carry essential conditions: every boundary edge off
        the symmetry axis."""
        return ("dirichlet",)

    # -- point location -------------------------------------------------------

    def _build_locator(self):
        """Bucket grid, stored as CSR: the cells whose bounding box meets
        bucket b are ids[start[b]:start[b + 1]], in increasing index order.
        Its lines sit at per-axis quantiles of the cell centroids, about
        sqrt(cells)/2 a side, so graded regions get small buckets."""
        p = self.mesh.vertices[self.mesh.triangles]
        lo = np.minimum(np.minimum(p[:, 0], p[:, 1]), p[:, 2])
        hi = np.maximum(np.maximum(p[:, 0], p[:, 1]), p[:, 2])
        centroid = (p[:, 0] + p[:, 1] + p[:, 2]) / 3.0
        n = max(4, int(math.sqrt(len(p)) / 2))
        at = np.arange(1, n) * len(p) // n
        lines = [np.unique(np.sort(centroid[:, d])[at]) for d in (0, 1)]
        ny = len(lines[1]) + 1
        # boxes grow by more than the barycentric slack, so a point just off
        # a cell's edge meets that cell even across a bucket line
        pad = 1e-9 * np.maximum(hi[:, :1] - lo[:, :1], hi[:, 1:] - lo[:, 1:])
        ilo, ihi = (self._bucket_ij(b, lines) for b in (lo - pad, hi + pad))
        span = ihi - ilo + 1
        count = span[:, 0] * span[:, 1]
        cell = np.repeat(np.arange(len(p)), count)
        k = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count, count)
        row, col = np.divmod(k, np.repeat(span[:, 1], count))
        bucket = np.repeat(ilo[:, 0] * ny + ilo[:, 1], count) + row * ny + col
        nb = (len(lines[0]) + 1) * ny
        # keys of 16 bits or fewer get numpy's radix sort
        key = bucket.astype(np.min_scalar_type(nb))
        order = np.argsort(key, kind="stable")
        start = np.searchsorted(bucket[order], np.arange(nb + 1))
        # corners and barycentric gradients as (x or y, vertex, cell) tables
        self._locator = (lines, ny, cell[order], start,
                         p.T.copy(), self.bgrads.T.copy())

    @staticmethod
    def _bucket_ij(pts, lines):
        """Per-axis bucket indices (n, 2), monotone; NaN is in the last."""
        return np.stack([np.searchsorted(lines[d], pts[:, d], side="right")
                         for d in (0, 1)], axis=1)

    def locate(self, x1, rho):
        """Find containing triangles and barycentric coordinates.

        A point belongs to the first cell of its bucket, in index order,
        whose barycentric coordinates are all >= -1e-10.  Returns
        (tri_indices, bary) with tri = -1 for points outside."""
        if self._locator is None:
            self._build_locator()
        lines, ny, ids, start, (vx, vy), (gx, gy) = self._locator
        pts = np.stack([np.atleast_1d(np.asarray(x1, dtype=float)),
                        np.atleast_1d(np.asarray(rho, dtype=float))], axis=1)
        tri_out = np.full(len(pts), -1, dtype=np.int64)
        bary_out = np.zeros((len(pts), 3))
        ij = self._bucket_ij(pts, lines)
        bucket = ij[:, 0] * ny + ij[:, 1]
        first = start[bucket]
        count = start[bucket + 1] - first
        # (point, candidate) pairs in batches of about _LOCATE_PAIRS, so the
        # memory stays bounded however many points share a crowded bucket
        before = np.cumsum(count) - count
        cuts = np.flatnonzero(np.diff(before // _LOCATE_PAIRS)) + 1
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(pts)]):
            n = count[lo:hi]
            pt = np.repeat(np.arange(lo, hi), n)
            k = np.arange(len(pt)) - np.repeat(np.cumsum(n) - n, n)
            cand = ids[first[pt] + k]
            x, y = pts[pt].T
            # lam_j is affine with gradient bgrads[t, j] and value 1 at
            # vertex j of cell t; lam is (3, pairs)
            lam = np.array([1.0 + (gx[j, cand] * (x - vx[j, cand])
                                   + gy[j, cand] * (y - vy[j, cand]))
                            for j in range(3)])
            hit = np.flatnonzero(lam.min(axis=0) >= -_LOCATE_TOL)
            hit = hit[np.unique(pt[hit], return_index=True)[1]]
            b = np.clip(lam[:, hit].T, 0.0, None)
            tri_out[pt[hit]] = cand[hit]
            bary_out[pt[hit]] = b / b.sum(axis=1, keepdims=True)
        return tri_out, bary_out


# ----------------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------------

# triplets summed at a time, at most: the stiffness form at eps = 0.1,
# level 1 (925 000 triplets) goes in 15 blocks.  Against 1 << 17 the
# build's traced peak fell 18.2 -> 15.7 MB at about the same time
_BLOCK_TRIPLETS = 1 << 16


def _element_blocks(disc: Discretization, kind: str,
                    coeff: Callable | None = None):
    """The element blocks of a form, kind 'stiffness' or 'mass';
    coeff(x1, rho) multiplies the integrand.  Returns the int32 nodes
    (t, 6) of the t cells that carry the form, their 21 entries i <= j
    (t, 21), and `pos` (6, 6), the entry of each (i, j).

    Each form is one matrix product of per-cell quadrature factors with a
    reference table built from the rule (Kirby & Logg, ACM TOMS 2006), for
    the 21 entries i <= j of each symmetric 6 x 6 block: mass local[t, ij]
    = sum_q wfac[t, q] shp[q, i] shp[q, j]; stiffness local[t, ij] =
    sum_(q,kl) wfac[t, q] B[t, kl] (dshp[q, i, k] dshp[q, j, l] +
    dshp[q, i, l] dshp[q, j, k] if k < l), over the 6 entries k <= l of B[t],
    the Gram matrix of the cell's barycentric gradients.  Both triangles of
    a block are read from the same 21 numbers, so the block is bitwise
    symmetric."""
    degree = 4 if kind == "stiffness" else 6
    bary, wts = _dunavant(degree)
    shp, dshp = _p2_shapes(bary)
    nloc = shp.shape[1]
    # the pairs i <= j, row by row, and the pair of each entry of a block
    i, j = np.triu_indices(nloc)
    pos = np.empty((nloc, nloc), dtype=np.intp)
    pos[i, j] = pos[j, i] = np.arange(len(i))

    p = np.take(disc.mesh.vertices, disc.mesh.triangles, axis=0)
    # a WeightModel only where its annuli reach: the same cells are kept
    idx = (np.flatnonzero(coeff.support(p)) if isinstance(coeff, WeightModel)
           else np.arange(len(p)))
    p = np.take(p, idx, axis=0)
    rho = p[..., 1] @ bary.T  # (t, q)
    cvals = 1.0
    if coeff is not None and len(p):
        cvals = np.asarray(coeff(p[..., 0] @ bary.T, rho), dtype=float)
        live = np.any(cvals != 0.0, axis=1)
        idx, rho, cvals = idx[live], rho[live], cvals[live]
    wfac = ((wts * rho ** disc.measure_exponent * cvals)
            * np.take(disc.area, idx)[:, None])
    del p, rho, cvals

    if kind == "mass":
        local = wfac @ (shp[:, i] * shp[:, j])
    else:
        k, l = np.triu_indices(3)
        di, dj = dshp[:, i], dshp[:, j]  # (q, 21, 3)
        table = di[..., k] * dj[..., l] + (k < l) * di[..., l] * dj[..., k]
        table = table.swapaxes(1, 2).reshape(-1, len(i))  # (q * 6, 21)
        gx, gy = (np.take(disc.bgrads[..., c], idx, axis=0) for c in (0, 1))
        # column by column: fancy indexing of the gradients took 3.7 ms
        # of a 15 ms stiffness build at eps = 0.1, level 1
        gram = np.empty((len(idx), len(k)))
        for c, (a, b) in enumerate(zip(k, l)):
            gram[:, c] = gx[:, a] * gx[:, b] + gy[:, a] * gy[:, b]
        local = (wfac[:, :, None] * gram[:, None, :]).reshape(
            len(idx), -1) @ table
    # int32 node ids, which COO keeps; int64 ones it scans and copies
    return np.take(disc.cells, idx, axis=0).astype(np.int32), local, pos


def _pattern_size(disc: Discretization, cells: np.ndarray,
                  around: np.ndarray, kept: np.ndarray) -> int:
    """Entries of the summed form of the P2 cells `cells` (t, 6) on the
    nodes of the mask `kept`, rows and columns; `around` counts the cells
    at each node.  The cells give sum_t |kept in t|^2 (row, column) pairs.
    A pair counted twice is a node with itself, once for every cell around
    it, or two nodes of an edge (its ends and its midside node) that two
    of the cells share: two cells of a conforming mesh share one edge at
    most, and a midside node lies in the cells of its edge only."""
    nv = len(disc.mesh.vertices)
    ones = kept.view(np.uint8)
    per_cell = np.take(ones, cells) @ np.ones(cells.shape[1], dtype=np.uint8)
    size = int(np.dot(per_cell, per_cell.astype(np.int64)))
    at_node = around[kept]
    size -= int(at_node.sum()) - np.count_nonzero(at_node)
    shared = np.flatnonzero(around[nv:] == 2)
    per_edge = (np.take(ones, np.take(disc._edges.edges, shared, axis=0))
                @ np.ones(2, dtype=np.uint8) + np.take(ones, nv + shared))
    return size - int(np.dot(per_edge, per_edge.astype(np.int64))
                      - per_edge.sum())


def _assemble_form(disc: Discretization, kind: str,
                   coeff: Callable | None = None,
                   free: np.ndarray | None = None,
                   times: np.ndarray | None = None):
    """The form of `_element_blocks` on the sorted nodes `free`, rows and
    columns (all nodes when None), as CSR with sorted, summed entries.

    The triplets (cell t, local i, local j) of the element blocks are
    summed by scipy's COO-to-CSR conversion one block of kept rows at a
    time, at most `_BLOCK_TRIPLETS` triplets each.  A scan of the (t, i)
    pairs' block keys picks each block's pairs in increasing order, so the
    triplets of every row reach the conversion in the order of the whole
    mesh and the row is summed over the same entries in the same order as
    in one whole-mesh conversion, bit for bit.  Fixed rows are dropped
    before that sum; fixed columns only after it, since the conversion
    sorts each row with an unstable sort whose order of duplicates depends
    on all of the row's entries.  Given `times`, a vector over all nodes,
    it returns (form, product), the product being that of the kept rows
    over all columns with `times`, summed as in the all-node form.

    No all-node matrix, whole-mesh triplet set or reduced copy is held:
    the output arrays are sized once, to the entries of the form's
    pattern (`_pattern_size`), and each block writes its rows into them;
    sized by the triplet count instead, they would hold 3.9 MB more
    through the blocks at eps = 0.1, level 1."""
    cells, local, pos = _element_blocks(disc, kind, coeff)
    n, nloc = disc.n_nodes, cells.shape[1]
    rows = np.arange(n) if free is None else free
    # blocks of about equal triplet counts: a row has nloc per cell at it
    around = np.bincount(cells.ravel(), minlength=n)
    load = np.r_[0, np.cumsum(np.take(around, rows))]
    blocks = max(1, -(-nloc * int(load[-1]) // _BLOCK_TRIPLETS))
    bounds = np.searchsorted(load, np.linspace(0, load[-1], blocks + 1))
    bounds[-1] = len(rows)
    row = np.zeros(n, dtype=np.int32)
    row[rows] = np.arange(len(rows))
    # the row block of every (t, i) pair, t * nloc + i; fixed rows in none
    block = np.full(n, blocks, dtype=np.min_scalar_type(blocks))
    block[rows] = np.repeat(np.arange(blocks), np.diff(bounds))
    key = np.take(block, cells).ravel()
    column = np.arange(n, dtype=np.int32)
    if free is not None:
        column[:] = -1
        column[free] = np.arange(len(free))

    size = _pattern_size(disc, cells, around, block < blocks)
    indptr = np.zeros(len(rows) + 1, dtype=np.int32)
    indices = np.empty(size, dtype=np.int32)
    data = np.empty(size)
    product = None if times is None else np.empty(len(rows))
    end = 0
    for b, (lo, hi) in enumerate(zip(bounds[:-1].tolist(),
                                     bounds[1:].tolist())):
        # the block's pairs in increasing order, as the whole mesh has them
        pair = np.flatnonzero(key == b)
        t = pair // nloc
        at = np.take(pos, pair - t * nloc, axis=0)
        at += local.shape[1] * t[:, None]
        vals = np.take(local, at).ravel()
        del at
        here = np.take(row, np.take(cells, pair))
        here -= lo
        mat = sp.coo_matrix(
            (vals, (np.repeat(here, nloc), np.take(cells, t, axis=0).ravel())),
            shape=(hi - lo, n)).tocsr()
        del pair, t, vals, here
        if times is not None:
            product[lo:hi] = mat @ times
        got = np.take(column, mat.indices)
        keep = got >= 0
        got = got[keep]
        indptr[lo + 1:hi + 1] = end + mat.indptr[1:] - np.searchsorted(
            np.flatnonzero(~keep), mat.indptr[1:])
        indices[end:end + len(got)] = got
        data[end:end + len(got)] = mat.data[keep]
        end += len(got)
        del mat, got, keep
    if end != size:
        raise ValueError(f"{end} summed entries against a pattern of {size}:"
                         " the mesh is not conforming")
    form = sp.csr_matrix((data, indices, indptr),
                         shape=(len(rows), n if free is None else len(free)))
    return form if times is None else (form, product)


def assemble_stiffness(disc: Discretization) -> sp.csr_matrix:
    return _assemble_form(disc, "stiffness")


def assemble_mass(disc: Discretization,
                  coeff: Callable | None = None) -> sp.csr_matrix:
    return _assemble_form(disc, "mass", coeff=coeff)


def assemble_load(disc: Discretization, f: Callable) -> np.ndarray:
    """Load vector int f v rho^m (degree-6 rule)."""
    bary, wts = _dunavant(6)
    shp = _p2_shapes(bary)[0]
    p = disc.mesh.vertices[disc.mesh.triangles]
    x1, rho = p[..., 0] @ bary.T, p[..., 1] @ bary.T
    fvals = np.asarray(f(x1, rho), dtype=float)
    wfac = (wts * rho ** disc.measure_exponent * fvals) * disc.area[:, None]
    return np.bincount(disc.cells.ravel(), weights=(wfac @ shp).ravel(),
                       minlength=disc.n_nodes)


@dataclass
class AssembledSystem:
    """Stiffness K and weighted mass M_p on the free nodes, with the
    Dirichlet elimination bookkeeping.

    `shift` is the sigma of the operator K - sigma M_p that `lu` factors,
    which is SPD only for sigma below the smallest weighted eigenvalue;
    the factor pivots on the diagonal, so a larger sigma shows as a
    non-positive pivot of U."""

    disc: Discretization
    K: sp.csr_matrix
    Mp: sp.csr_matrix
    free: np.ndarray
    fixed: np.ndarray
    shift: float = 0.0
    _lu: object = dfield(default=None, repr=False)

    def lu(self):
        """Factor of K - shift M_p (of K itself at shift 0), made on the
        first call and kept."""
        if self._lu is None:
            self._lu = _own_factor(self)
        return self._lu

    def _operator(self) -> sp.csr_matrix:
        return self.K - self.shift * self.Mp if self.shift else self.K

    def shifted(self, shift: float) -> "AssembledSystem":
        """The same system with another shift and no factor yet."""
        return replace(self, shift=float(shift), _lu=None)

    def clamped(self, nodes: np.ndarray) -> "AssembledSystem":
        """The system with `nodes` fixed as well, reduced from its own
        free-node matrices, with the same shift and no factor yet."""
        keep = np.flatnonzero(~np.isin(self.free, nodes))
        return replace(self, K=self.K[keep][:, keep].tocsr(),
                       Mp=self.Mp[keep][:, keep].tocsr(),
                       free=self.free[keep],
                       fixed=np.union1d(self.fixed, nodes), _lu=None)

    def solve(self, load: np.ndarray) -> "FieldSolution":
        """Solve (K - shift M_p) u = load on the free nodes with u = 0 on
        the fixed ones; `load` is full-length.  The field carries the
        relative residual of the reduced solve.

        The factor is made, used and freed in this call, and `lu()` stays
        unmade.  A shifted operator is certified SPD before the solve: with
        its row and column permutations equal, the LU is a congruence of
        the operator, so by Sylvester's law of inertia all pivots of U
        positive certifies shift < lambda_1, and a non-positive pivot
        raises ValueError.  Reading the pivots makes SuperLU keep L and U
        as CSC copies on the factor (12.5 MB for Ubar's at the default
        level 1 under scipy 1.17.1), which die with it here."""
        rhs = load[self.free]
        lu = _own_factor(self)
        if self.shift and not np.array_equal(lu.perm_r, lu.perm_c):
            raise RuntimeError("shifted factor pivoted off the diagonal; "
                               "its pivots do not give the inertia")
        if self.shift and np.any(lu.U.diagonal() <= 0):
            raise ValueError(
                f"shift {self.shift:.6g} is not below the smallest "
                "weighted eigenvalue: K - shift M_p has a non-positive "
                "pivot")
        u = lu.solve(rhs)
        del lu
        r = self.K @ u - self.shift * (self.Mp @ u) - rhs
        resid = np.linalg.norm(r) / max(np.linalg.norm(rhs), 1e-300)
        return FieldSolution(self.disc, self.expand(u), residual=float(resid))

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        full = np.zeros(self.disc.n_nodes)
        full[self.free] = reduced
        return full


def _own_factor(system: AssembledSystem):
    """A new factor of the system's operator; a failed factorization
    raises RuntimeError with a hint at its usual cause."""
    try:
        return factor(system._operator())
    except RuntimeError as exc:
        raise RuntimeError(
            f"singular factorization after Dirichlet elimination ({exc}); "
            "check boundary tags and shifts") from exc


def _dirichlet_nodes(disc: Discretization):
    """Sorted free and fixed nodes: the fixed ones lie on the boundary
    tags of `Discretization.dirichlet_tags()`."""
    fixed = disc.boundary_nodes(*disc.dirichlet_tags())
    free = np.ones(disc.n_nodes, dtype=bool)
    free[fixed] = False
    return np.flatnonzero(free), fixed


def assemble(disc: Discretization,
             weight: WeightModel | Callable) -> AssembledSystem:
    """Assemble K (SPD on free nodes) and M_p (PSD) for -Du = l p u, with
    Dirichlet conditions on `Discretization.dirichlet_tags()`."""
    free, fixed = _dirichlet_nodes(disc)
    return AssembledSystem(disc, _assemble_form(disc, "stiffness", free=free),
                           _assemble_form(disc, "mass", weight, free=free),
                           free, fixed)


def factor(A: sp.spmatrix):
    """Sparse LU factor of A, which must be symmetric positive definite.

    Minimum-degree ordering on A + A^T with diagonal pivots
    (SymmetricMode, no threshold pivoting), which is stable only because A
    is SPD.  On the eps = 0.1 sweep stiffness (51 372 free P2 DOFs) it
    keeps 3.6M nonzeros in L + U, against 6.6M with the default column
    ordering.

    SuperLU's supernode settings are fixed and small: relax = 1 (no
    relaxed supernodes at the leaves of the elimination tree) and
    panel_size = 1.  They change neither the ordering nor the fill (the
    same 3.63M at eps = 0.1); on the four shifted operators of an eps =
    0.3 and 0.1 sweep the factorizations took about 30 % less time than at
    SuperLU's defaults (1.05 s -> 0.76 s summed, 2-core Xeon), and the
    solves were no slower.  Larger values are not safe: relax = 80,
    panel_size = 40 corrupted the heap (a segfault or a glibc abort) on the
    eps = 0.3 sweep operator and on the Ubar operator under scipy
    1.17.1.

    A CSR matrix goes to SuperLU as its transpose, a CSC view of the same
    arrays, which is A itself because A is symmetric: no copy is made (the
    copy took 3.95 ms on the eps = 0.1 operator, 2-core Xeon)."""
    return spla.splu(A.T if A.format == "csr" else sp.csc_matrix(A),
                     permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, relax=1, panel_size=1,
                     options={"SymmetricMode": True})


# ----------------------------------------------------------------------------
# Fields and solves
# ----------------------------------------------------------------------------

class FieldSolution:
    """Nodal field on a discretization with point evaluation."""

    def __init__(self, disc: Discretization, values: np.ndarray,
                 residual: float = 0.0):
        self.disc = disc
        self.values = np.asarray(values, dtype=float)
        self.residual = float(residual)

    def evaluate(self, x1, rho):
        """Field values at the points; NaN outside the mesh."""
        x1 = np.asarray(x1, dtype=float)
        scalar = x1.ndim == 0
        x1 = np.atleast_1d(x1)
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        x1b, rhob = np.broadcast_arrays(x1, rho)
        tri, bary = self.disc.locate(x1b.ravel(), rhob.ravel())
        out = np.full(tri.shape, np.nan)
        ok = tri >= 0
        out[ok] = np.einsum("pk,pk->p", _p2_shapes(bary[ok])[0],
                            self.values[self.disc.cells[tri[ok]]])
        out = out.reshape(x1b.shape)
        return float(out[0]) if scalar and out.size == 1 else out


def solve_dirichlet(disc: Discretization,
                    lift: Callable) -> Callable[[], FieldSolution]:
    """The solve of the remainder w of the harmonic field I(lift) + w, I
    being nodal interpolation: -div(rho^m grad w) = div(rho^m grad
    I(lift)) with w = 0 on the Dirichlet nodes (the axis is always
    natural), so the load is -K I(lift), formed with the free rows of K
    over all columns before the fixed columns are dropped, and the
    boundary values are those of the lift; no mass form is assembled.

    The system and its load are built here and returned as a job,
    `AssembledSystem.solve` bound to the load, whose call returns w."""
    free, fixed = _dirichlet_nodes(disc)
    K, K_lift = _assemble_form(disc, "stiffness", free=free,
                               times=lift(*disc.nodes.T))
    system = AssembledSystem(disc, K, sp.csr_matrix(K.shape), free, fixed)
    return functools.partial(system.solve, system.expand(-K_lift))


# ----------------------------------------------------------------------------
# Eigensolver
# ----------------------------------------------------------------------------

@dataclass
class EigenPair:
    """An eigenvalue and its vector, which carries the pair's residual."""

    lam: float
    field: FieldSolution


def eigen_smallest(system: AssembledSystem, steps: int) -> EigenPair:
    """Ground pair of K u = l M_p u from a cold start: shift-invert
    Rayleigh-Ritz, then two inverse-iteration steps of `refine_eigenpair`,
    all on the system's factor of A = K - sigma M_p.

    `steps` (at least 3) counts solves: `steps - 2` Krylov solves
    A y = M_p v grow an M_p-orthonormal basis from the all-ones vector to
    `steps - 1` vectors, and the last two polish the Ritz vector.
    Gram-Schmidt runs twice against the stored M_p v of each basis vector,
    so its coefficients are the projection T of A^-1 M_p onto the basis
    and no inner product costs a sparse product.  The largest eigenvalue
    of T is the Ritz value of 1/(lam1 - sigma); its Ritz vector enters the
    polish multiplied by A^-1 M_p, which the solves already hold, so it
    spans the whole basis and drops the part of the all-ones start outside
    the range of A^-1 M_p.  (A projection of A itself, which takes K times
    the all-ones vector, Rayleigh quotient 115 lam1 on the u0 system,
    stalled near 1e-12 of max|u0| there and drifted to 2e-10 at 40
    steps.)  A new vector whose M_p-norm falls below 1e-12 of its norm
    before orthogonalization means the basis spans an invariant subspace,
    and the basis stops growing there.  The all-ones vector overlaps the
    positive ground state, so the basis cannot miss it, and a fixed start
    gives the same result in every process."""
    if steps < 3:
        raise ValueError(f"steps={steps}: eigen_smallest needs a Krylov "
                         "solve and the two polish steps")
    if system.Mp.nnz == 0:
        raise ValueError("weighted mass is identically zero")
    Mp, lu = system.Mp, system.lu()
    V = np.empty((steps - 1, len(system.free)))
    MV = np.empty_like(V)
    H = np.zeros((steps - 1, steps - 2))
    v = np.ones(V.shape[1])
    Mv = Mp @ v
    norm = math.sqrt(v @ Mv)
    V[0], MV[0] = v / norm, Mv / norm
    k = 1
    for j in range(steps - 2):
        y = lu.solve(MV[j])
        c = MV[:k] @ y
        y -= c @ V[:k]
        c2 = MV[:k] @ y
        y -= c2 @ V[:k]
        H[:k, j] = c + c2
        My = Mp @ y
        beta = math.sqrt(max(y @ My, 0.0))
        if beta <= 1e-12 * math.hypot(np.linalg.norm(H[:k, j]), beta):
            break
        H[k, j] = beta
        V[k], MV[k] = y / beta, My / beta
        k += 1
    # j + 1 solves; the basis holds one vector more, or as many after a break
    T = H[:j + 1, :j + 1]
    _, S = np.linalg.eigh(0.5 * (T + T.T))
    ritz = (H[:k, :j + 1] @ S[:, -1]) @ V[:k]
    # the basis (2 (steps - 1) vectors) is freed before the polish, whose
    # Rayleigh quotient copies rows of K and M_p to long double
    del V, MV
    return refine_eigenpair(system, ritz, 2)


def refine_eigenpair(system: AssembledSystem, start: np.ndarray,
                     steps: int) -> EigenPair:
    """Shifted inverse iteration in float64.

    Iterates on the factor `system.lu()` of K - sigma M_p, sigma being
    `system.shift`, and makes no factorization of its own.  From the
    free-node vector `start`, runs exactly `steps` iterations, each one
    solve of (K - sigma M_p) y = M_p u that contracts the other
    eigencomponents by (lam1 - sigma)/(lam2 - sigma) or better, followed
    by M_p-normalization.  The LU solve of this SPD operator is accurate
    component by component (Skeel, Math. Comp. 1980), so components many
    orders below the peak (the left body of a dumbbell eigenvector) keep
    their digits without iterative refinement: against two long-double
    refinement steps (tests/extended_polish_oracle.py) every sweep
    lam_eps and lam_ref stayed bitwise equal.  The last step leaves
    u^T M_p u = 1 (int p u^2 rho^m = 1), and the sign of u makes 1^T M_p u
    positive, at steps = 0 too.  The eigenvalue is the K/M_p Rayleigh
    quotient of u, and the field's residual its relative residual, both
    taken in long double: a float64 quotient moved lam by up to 1.2e-14.

    A Rayleigh quotient at or below sigma raises ValueError: then
    u^T (K - sigma M_p) u <= 0, which proves the factored operator
    indefinite, sigma at or above the ground eigenvalue.  The check reads
    only the quotient, so every shifted iteration gets it for free; an
    iterate drawn to a mode above sigma passes it, and a caller that knows
    a bound on the ground eigenvalue checks that bound itself."""
    return _inverse_iteration(system, system.lu(), start, steps)


def refine_on_own_factor(system: AssembledSystem, start: Callable,
                         steps: int) -> EigenPair:
    """`refine_eigenpair`'s iteration on a factor of K - sigma M_p that
    this call makes, uses and frees on the calling thread; `system.lu()`
    stays unmade.  `start()` gives the free-node start vector once the
    factorization is done, so it may wait for another thread's result."""
    return _inverse_iteration(system, _own_factor(system), start(), steps)


# rows of K and M_p copied to long double at a time for the Rayleigh
# quotient: a long-double copy of the whole eps = 0.1 sweep K is 11.9 MB,
# 9.3 MB of it entries
_QUOTIENT_ROWS = 1 << 13


def _longdouble_product(A: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """A @ x for a long-double x, with A's entries in long double, one
    block of `_QUOTIENT_ROWS` rows at a time.  Each row sums its products
    in the order of the whole-matrix product, so the result is the same
    to the bit."""
    out = np.empty(A.shape[0], dtype=np.longdouble)
    for a in range(0, A.shape[0], _QUOTIENT_ROWS):
        b = min(a + _QUOTIENT_ROWS, A.shape[0])
        lo, hi = A.indptr[a], A.indptr[b]
        block = sp.csr_matrix((A.data[lo:hi].astype(np.longdouble),
                               A.indices[lo:hi], A.indptr[a:b + 1] - lo),
                              shape=(b - a, A.shape[1]))
        out[a:b] = block @ x
    return out


def _inverse_iteration(system: AssembledSystem, lu, start: np.ndarray,
                       steps: int) -> EigenPair:
    """The steps, quotient and sign of `refine_eigenpair` on the factor
    `lu` of the system's operator."""
    if system.Mp.nnz == 0:
        raise ValueError("weighted mass is identically zero")
    u = np.asarray(start, dtype=float)
    for _ in range(steps):
        y = lu.solve(system.Mp @ u)
        u = y / np.sqrt(y @ (system.Mp @ y))
    # a factor of this call's own dies here, on its thread, before the
    # quotient copies rows of K and M_p to long double; `system.lu()` keeps
    # the system's
    del lu
    ul = u.astype(np.longdouble)
    Ku = _longdouble_product(system.K, ul)
    Mu = _longdouble_product(system.Mp, ul)
    lam = (ul @ Ku) / (ul @ Mu)
    if not lam > system.shift:
        raise ValueError(f"Rayleigh quotient {float(lam)!r} is not above the "
                         f"shift {system.shift!r}: K - shift M_p is not "
                         "positive definite")
    r = Ku - lam * Mu
    res = float(np.sqrt(r @ r) / np.sqrt(Ku @ Ku))
    if Mu.sum() < 0:
        u = -u
    return EigenPair(float(lam),
                     FieldSolution(system.disc, system.expand(u), res))
