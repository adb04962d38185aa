"""The point locator build that `fem.Discretization._build_locator`
replaced, kept as the reference its tables must match bit for bit.

It gathers the corners as (cell, vertex, x or y), takes each cell's box
and centroid from that gather, finds the bucket of each box corner with
`Discretization._bucket_ij`, expands each box into its buckets with a
`divmod`, and finds where each bucket starts by a search of the sorted
bucket keys; the corner table is a transposed copy of the gather.
"""

import math

import numpy as np


def build_locator(disc):
    """The (lines, ny, ids, start, corners, gradients) tables of `disc`."""
    p = disc.mesh.vertices[disc.mesh.triangles]
    lo = np.minimum(np.minimum(p[:, 0], p[:, 1]), p[:, 2])
    hi = np.maximum(np.maximum(p[:, 0], p[:, 1]), p[:, 2])
    centroid = (p[:, 0] + p[:, 1] + p[:, 2]) / 3.0
    n = max(4, int(math.sqrt(len(p)) / 2))
    at = np.arange(1, n) * len(p) // n
    lines = [np.unique(np.sort(centroid[:, d])[at]) for d in (0, 1)]
    ny = len(lines[1]) + 1
    pad = 1e-9 * np.maximum(hi[:, :1] - lo[:, :1], hi[:, 1:] - lo[:, 1:])
    ilo, ihi = (disc._bucket_ij(b, lines) for b in (lo - pad, hi + pad))
    span = ihi - ilo + 1
    count = span[:, 0] * span[:, 1]
    cell = np.repeat(np.arange(len(p)), count)
    k = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count, count)
    row, col = np.divmod(k, np.repeat(span[:, 1], count))
    bucket = np.repeat(ilo[:, 0] * ny + ilo[:, 1], count) + row * ny + col
    nb = (len(lines[0]) + 1) * ny
    order = np.argsort(bucket.astype(np.min_scalar_type(nb)), kind="stable")
    start = np.searchsorted(bucket[order], np.arange(nb + 1))
    return (lines, ny, cell[order], start, p.T.copy(), disc.bgrads.T.copy())
