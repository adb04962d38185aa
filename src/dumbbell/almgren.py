"""Frequency-function diagnostics and blow-up rescalings.

The frequency of a field V over exterior half-balls,

    N_V(t) = D_V(t) / H_V(t),
    D_V(t) = t^(2-N) int_{D-, |x|>t} (|grad V|^2 - lam p V^2) dx,
    H_V(t) = t^(1-N) int_{half-sphere |x|=t} V^2 dsigma,

identifies the order of the singularity or zero at the origin.  Energies
are integrated element by element; cells the sphere |x| = t (or the
section x1 = t for the channel variant) crosses are subdivided level by
level in barycentric coordinates so quadrature points stay aligned with
the finite element basis.  FEM forms omit the constant angular factor
omega_(N-2); the energies here restore it so that quotients against the
surface-measure quadratures are consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from . import channel as ch
from . import cross_section as cs
from . import fem
from .profiles import ProfileSolution

__all__ = [
    "FrequencyTrace",
    "frequency_exterior",
    "frequency_channel",
    "blowup",
    "compare_views",
]


# ----------------------------------------------------------------------------
# Masked element quadrature
# ----------------------------------------------------------------------------

_SUBDIV = np.array((
    ((1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.5, 0.0, 0.5)),
    ((0.5, 0.5, 0.0), (0.0, 1.0, 0.0), (0.0, 0.5, 0.5)),
    ((0.5, 0.0, 0.5), (0.0, 0.5, 0.5), (0.0, 0.0, 1.0)),
    ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5)),
))
_DEPTH = 8     # subdivision levels below a cut cell
_ON_CUT = 1e-12  # |level| at or below this is on the cut: mesh vertices
                 # meant to lie on a section sit there up to rounding
_DEGREE = 6    # Dunavant rule on every piece
_BATCH = 4096  # pieces per energy evaluation; bounds the quadrature memory


def _masked_rule(corners, side):
    """Pieces of the triangles `corners` (T, 3, 2) where the signed level
    `side(x1, rho)` is positive.

    Each level probes all pieces at their corners, edge midpoints and
    centroid at once, keeps those with no negative probe, splits in four
    those with probes of both signs and drops the rest, so a piece that
    only touches the cut is never subdivided (a probe within _ON_CUT of
    zero counts as on the cut, neither sign); cut pieces left on the last
    level keep their quadrature points where the level is positive.
    Returns each piece's triangle, its corners in that triangle's
    barycentric frame (P, 3, 3) and its weights as fractions of the
    triangle's area (P, q)."""
    base_pts, base_wts = fem._dunavant(_DEGREE)
    cell = np.arange(len(corners))
    bary = np.broadcast_to(np.eye(3), (len(corners), 3, 3))
    pieces = []
    for level in range(_DEPTH + 1):
        probes = np.concatenate([
            corners,
            0.5 * (corners + np.roll(corners, 1, axis=1)),
            corners.mean(axis=1, keepdims=True)], axis=1)
        level_vals = side(probes[..., 0], probes[..., 1])  # (P, 7)
        below = (level_vals < -_ON_CUT).any(axis=1)
        full = ~below
        cut = below & (level_vals > _ON_CUT).any(axis=1)
        frac = np.broadcast_to(base_wts * 0.25 ** level,
                               (len(corners), len(base_wts)))
        if level == _DEPTH:
            phys = base_pts @ corners[cut]
            frac = frac.copy()
            frac[cut] *= side(phys[..., 0], phys[..., 1]) > 0
            pieces.append((cell[full | cut], bary[full | cut],
                           frac[full | cut]))
            break
        pieces.append((cell[full], bary[full], frac[full]))
        cell = np.repeat(cell[cut], 4)
        corners = np.einsum("sij,pjd->psid", _SUBDIV,
                            corners[cut]).reshape(-1, 3, 2)
        bary = np.einsum("sij,pjk->psik", _SUBDIV,
                         bary[cut]).reshape(-1, 3, 3)
    return tuple(np.concatenate(a) for a in zip(*pieces))


def _masked_energy(disc, u_values, weight, lam, side,
                   extra=None, extra_grad=None):
    """omega-weighted energy int (|grad u|^2 - lam p u^2) rho^m over the
    region where the signed level `side` is positive, with u = FEM field +
    optional closed-form part evaluated pointwise."""
    base_pts, _ = fem._dunavant(_DEGREE)
    n = disc.mesh.params.get("dimension", 3)
    shapes = fem._p1_shapes if disc.order == 1 else fem._p2_shapes
    corners = disc.mesh.vertices[disc.mesh.triangles]  # (T, 3, 2)
    cells, pieces, fracs = _masked_rule(corners, side)
    total = 0.0
    for lo in range(0, len(cells), _BATCH):
        tri_ids = cells[lo:lo + _BATCH]
        bary = base_pts @ pieces[lo:lo + _BATCH]  # (P, q, 3)
        wts = fracs[lo:lo + _BATCH] * disc.area[tri_ids, None]
        phys = bary @ corners[tri_ids]  # (P, q, 2)
        s, d = shapes(bary.reshape(-1, 3))
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
        rho_m = rho ** disc.measure_exponent if disc.measure_exponent else 1.0
        total += float(np.sum(wts * dens * rho_m))
    return cs.sphere_surface_area(n - 2) * total


def _fd_gradient(f, h=1e-6):
    def grad(x1, rho):
        gx = (f(x1 + h, rho) - f(x1 - h, rho)) / (2 * h)
        gr = (f(x1, rho + h) - f(x1, np.maximum(rho - h, 0.0))) \
            / (rho + h - np.maximum(rho - h, 0.0))
        return np.stack([gx, gr], axis=-1)
    return grad


def _unpack_field(field, mesh=None, gradient=None):
    """Returns (disc, nodal_values, extra, extra_grad, evaluator)."""
    if isinstance(field, ProfileSolution):
        disc = field.field.disc
        extra_grad = _fd_gradient(field.carried)
        return disc, field.field.values, field.carried, extra_grad, field
    if isinstance(field, fem.FieldSolution):
        return field.disc, field.values, None, None, field.evaluate
    if mesh is None:
        raise ValueError("analytic fields need an integration mesh")
    disc = mesh if isinstance(mesh, fem.Discretization) \
        else fem.Discretization(mesh, order=2)
    grad = gradient if gradient is not None else _fd_gradient(field)
    zero = np.zeros(disc.n_nodes)
    return disc, zero, field, grad, field


# ----------------------------------------------------------------------------
# Frequency traces
# ----------------------------------------------------------------------------

@dataclass
class FrequencyTrace:
    radii: np.ndarray
    D: np.ndarray
    H: np.ndarray
    N: np.ndarray
    context: dict = dfield(default_factory=dict)


def frequency_exterior(field, weight, lam, radii, mesh=None,
                       gradient=None) -> FrequencyTrace:
    """Frequency of a left-half-space field over exterior regions |x| > t.

    `field` is a ProfileSolution, a FieldSolution on a D- mesh, or an
    analytic callable (then `mesh` supplies the integration support and
    `gradient` the exact gradient; a finite-difference fallback is used if
    absent)."""
    disc, values, extra, extra_grad, evaluator = _unpack_field(
        field, mesh, gradient)
    r_max = float(np.hypot(disc.mesh.vertices[:, 0],
                           disc.mesh.vertices[:, 1]).max())
    radii = np.asarray(sorted(float(r) for r in radii))
    if radii[0] <= 0:
        raise ValueError("radii must be positive")
    if radii[-1] >= r_max:
        raise ValueError(
            f"radius {radii[-1]} leaves an empty exterior (mesh extends "
            f"to {r_max:.3g})")
    n = disc.mesh.params.get("dimension", 3)

    D = np.empty(len(radii))
    H = np.empty(len(radii))
    for i, t in enumerate(radii):
        e = _masked_energy(disc, values, weight, lam,
                           lambda x1, rho, _t=t: np.hypot(x1, rho) - _t,
                           extra=extra, extra_grad=extra_grad)
        D[i] = t ** (2 - n) * e
        H[i] = ch.hminus(evaluator, t, n)
        if H[i] <= 0:
            raise ValueError(f"boundary mass vanishes at radius {t}")
    return FrequencyTrace(radii, D, H, D / H,
                          {"kind": "exterior", "lambda": lam})


def frequency_channel(field, eps, t_list, weight=None, lam=0.0,
                      mesh=None, gradient=None) -> FrequencyTrace:
    """Channel frequency N_eps(t) = eps * E(t) / Hc(t) with E(t) the energy
    over the region x1 < t and Hc the channel section mass at x1 = t."""
    disc, values, extra, extra_grad, evaluator = _unpack_field(
        field, mesh, gradient)
    t_list = np.asarray(sorted(float(t) for t in t_list))
    if np.any(t_list <= 0) or np.any(t_list >= 1):
        raise ValueError("sections must lie strictly inside the tube (0, 1)")
    n = disc.mesh.params.get("dimension", 3)

    D = np.empty(len(t_list))
    H = np.empty(len(t_list))
    for i, t in enumerate(t_list):
        e = _masked_energy(disc, values, weight, lam,
                           lambda x1, rho, _t=t: _t - x1,
                           extra=extra, extra_grad=extra_grad)
        _, hc = ch.htilde(evaluator, t, eps, n)
        if hc <= 0:
            raise ValueError(f"channel mass vanishes at section {t}")
        D[i] = e
        H[i] = hc
    return FrequencyTrace(t_list, D, H, eps * D / H,
                          {"kind": "channel", "eps": eps, "lambda": lam})


# ----------------------------------------------------------------------------
# Blow-up views
# ----------------------------------------------------------------------------

_KINDS = ("RightJunction", "Channel", "LeftJunction", "Normalized")


def blowup(field, kind: str, eps: float, x0: float | None = None,
           ktilde: float | None = None, dimension: int = 3):
    """One of the four rescaled views of `field`, as a function of
    (x1, rho):

    RightJunction: (1/eps) u(e1 + eps(x - e1));
    Channel:       u(eps(x1-1) + x0, eps x') / sqrt(Htilde(x0));
    LeftJunction:  u(eps x) / sqrt(section mass at x1 = eps);
    Normalized:    u / sqrt(half-sphere mass over Gamma-_ktilde).

    Each view evaluates field(center + scale (x1 - anchor), scale rho) / den
    with the map and the denominator fixed here.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown blow-up kind {kind!r}")
    if not 0 < eps < 0.5:
        raise ValueError("eps out of range")
    if kind == "RightJunction":
        center, anchor, scale, den = 1.0, 1.0, eps, eps
    elif kind == "Channel":
        if x0 is None or not 0 < x0 < 1:
            raise ValueError("Channel view needs x0 in (0, 1)")
        ht, _ = ch.htilde(field, x0, eps, dimension)
        if ht <= 0:
            raise ValueError("degenerate field: section mass vanishes")
        center, anchor, scale, den = x0, 1.0, eps, math.sqrt(ht)
    elif kind == "LeftJunction":
        ht, _ = ch.htilde(field, eps, eps, dimension)
        if ht <= 0:
            raise ValueError("degenerate field: section mass vanishes")
        center, anchor, scale, den = 0.0, 0.0, eps, math.sqrt(ht)
    else:
        if ktilde is None or ktilde <= 0:
            raise ValueError("Normalized view needs ktilde > 0")
        m = cs.half_sphere_mass(field, 0.0, ktilde, -1, dimension)
        if m <= 0:
            raise ValueError("degenerate field: surface mass vanishes")
        center, anchor, scale, den = 0.0, 0.0, 1.0, math.sqrt(m)

    def view(x1, rho):
        x1 = np.asarray(x1, dtype=float)
        rho = np.asarray(rho, dtype=float)
        return field(center + scale * (x1 - anchor), scale * rho) / den
    return view


def compare_views(view, reference, x1, rho) -> dict:
    """Sup discrepancy between a view and a reference evaluator over a
    common sample set, with the sup of the reference and the number of
    finite samples behind both; non-finite samples are left out."""
    x1 = np.asarray(x1, dtype=float)
    rho = np.asarray(rho, dtype=float)
    a = np.asarray(view(x1, rho), dtype=float)
    b = np.asarray(reference(x1, rho), dtype=float)
    diff = a - b
    ok = np.isfinite(diff)
    if not np.any(ok):
        raise ValueError("no valid samples in the comparison window")
    return {"sup": float(np.max(np.abs(diff[ok]))),
            "ref_sup": float(np.max(np.abs(b[ok]))),
            "samples": int(ok.sum())}
