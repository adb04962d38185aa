"""Point-by-point reference for the masked channel energy, for tests only.

The package's `almgren._masked_energy` gets field values and gradients on
each quadrature piece by matrix products against the reference tables of
the Dunavant rule.  This kernel evaluates the P2 shape functions afresh at
every quadrature point of every piece, in the parent cell's barycentric
frame, and the weight at every point, which is slower but independent of
that bookkeeping.
"""

import numpy as np

from dumbbell import almgren as A
from dumbbell import cross_section as cs
from dumbbell import fem


def masked_energy(disc, u_values, weight, lam, side,
                  extra=None, extra_grad=None):
    """omega-weighted energy int (|grad u|^2 - lam p u^2) rho^m over the
    region where the signed level `side` is positive, with u = FEM field +
    optional closed-form part evaluated pointwise."""
    base_pts, _ = fem._dunavant(A._DEGREE)
    n = disc.dimension
    corners = disc.mesh.vertices[disc.mesh.triangles]  # (T, 3, 2)
    cells, pieces, fracs = A._masked_rule(corners, side)
    total = 0.0
    for lo in range(0, len(cells), A._BATCH):
        tri_ids = cells[lo:lo + A._BATCH]
        bary = base_pts @ pieces[lo:lo + A._BATCH]  # (P, q, 3)
        wts = fracs[lo:lo + A._BATCH] * disc.area[tri_ids, None]
        phys = bary @ corners[tri_ids]  # (P, q, 2)
        s, d = fem._p2_shapes(bary.reshape(-1, 3))
        shp = s.reshape(bary.shape[:2] + s.shape[1:])  # (P, q, i)
        dshp = d.reshape(bary.shape[:2] + d.shape[1:])  # (P, q, i, 3)
        nodal = u_values[disc.cells[tri_ids]]  # (P, i)
        uvals = (shp @ nodal[:, :, None])[..., 0]
        # barycentric gradient (P, q, 1, 3), then the physical one (P, q, 2)
        gbary = nodal[:, None, None, :] @ dshp
        grads = gbary[:, :, 0, :] @ disc.bgrads[tri_ids]
        x1, rho = phys[..., 0], phys[..., 1]
        if extra is not None:
            uvals = uvals + extra(x1, rho)
            grads = grads + extra_grad(x1, rho)
        dens = np.einsum("tqd,tqd->tq", grads, grads)
        if weight is not None and lam != 0.0:
            dens = dens - lam * np.asarray(weight(x1, rho), float) * uvals ** 2
        total += float(np.sum(wts * dens * rho ** disc.measure_exponent))
    return cs.sphere_surface_area(n - 2) * total
