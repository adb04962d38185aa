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
from dataclasses import dataclass

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
_P2_NODES = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [.5, .5, 0],
                      [0, .5, .5], [.5, 0, .5]])  # P2 nodes, _p2_shapes order


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
        c0, c1, c2 = corners[:, 0:1], corners[:, 1:2], corners[:, 2:3]
        probes = np.concatenate([
            corners, 0.5 * (corners + np.concatenate([c2, c0, c1], axis=1)),
            (c0 + c1 + c2) / 3.0], axis=1)
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


class _MaskedPlan:
    """What `_masked_energy` needs of the mesh and the level: the masked
    rule's pieces (`_masked_rule`), the nodes of each piece's cell, the
    P2 shapes at a cut piece's own nodes and B^-T times its cell's
    gradients (a whole cell keeps its own), the weights, and, batch by
    batch, the physical Dunavant points, rho^m and the weight p where it
    can be nonzero.  None of it reads the field."""

    def __init__(self, disc, weight, side):
        base_pts, _ = fem._dunavant(_DEGREE)
        corners = disc.mesh.vertices[disc.mesh.triangles]  # (T, 3, 2)
        cells, pieces, fracs = _masked_rule(corners, side)
        self.nodes = disc.cells[cells]  # (P, i)
        self.cut = np.flatnonzero((pieces != np.eye(3)).any(axis=(1, 2)))
        self.at_nodes = fem._p2_shapes(
            (_P2_NODES @ pieces[self.cut]).reshape(-1, 3))[0].reshape(
                -1, 6, 6)
        self.bgrads = disc.bgrads[cells]  # (P, 3, 2)
        self.bgrads[self.cut] = np.swapaxes(
            np.linalg.inv(pieces[self.cut]), 1, 2) @ self.bgrads[self.cut]
        corners = pieces @ corners[cells]  # (P, 3, 2), physical
        self.wts = fracs * disc.area[cells, None]
        weighted = np.full(len(cells), weight is not None)
        if isinstance(weight, fem.WeightModel):
            weighted &= weight.support(corners)
        self.batches = []
        for lo in range(0, len(cells), _BATCH):
            sl = slice(lo, lo + _BATCH)
            phys = base_pts @ corners[sl]  # (P, q, 2)
            x1, rho = phys[..., 0], phys[..., 1]
            w = np.flatnonzero(weighted[sl])
            p = (np.asarray(weight(x1[w], rho[w]), float) if len(w)
                 else None)
            self.batches.append((sl, x1, rho, rho ** disc.measure_exponent,
                                 w, p))
        self.omega = cs.sphere_surface_area(disc.dimension - 2)

    def energy(self, u_values, lam, extra=None, extra_grad=None):
        """The energy of the field with nodal values `u_values` (plus the
        closed-form part `extra`, if any) at eigenvalue `lam`; the
        weighted term only where p can be nonzero, and not at lam = 0."""
        base_pts, _ = fem._dunavant(_DEGREE)
        shp, dshp = fem._p2_shapes(base_pts)  # (q, i), (q, i, 3)
        dtab = dshp.transpose(1, 0, 2).reshape(6, -1)  # (i, 3q)
        nodal = u_values[self.nodes]  # (P, i)
        nodal[self.cut] = (self.at_nodes @ nodal[self.cut, :, None])[..., 0]
        total = 0.0
        for sl, x1, rho, rho_m, w, p in self.batches:
            uvals = nodal[sl] @ shp.T
            grads = (nodal[sl] @ dtab).reshape(*uvals.shape, 3) \
                @ self.bgrads[sl]
            if extra is not None:
                uvals = uvals + extra(x1, rho)
                grads = grads + extra_grad(x1, rho)
            dens = np.einsum("tqd,tqd->tq", grads, grads)
            if p is not None and lam != 0.0:
                dens[w] -= lam * p * uvals[w] ** 2
            total += float(np.sum(self.wts[sl] * dens * rho_m))
        return self.omega * total


def _masked_energy(disc, u_values, weight, lam, side,
                   extra=None, extra_grad=None):
    """omega-weighted energy int (|grad u|^2 - lam p u^2) rho^m over the
    region where the signed level `side` is positive, with u = FEM field +
    optional closed-form part evaluated pointwise.  A cut piece with corners
    B (rows, in its cell's barycentric frame) takes the field at its own P2
    nodes and B^-T times the cell's gradients, a whole cell its own; values
    and gradients at the Dunavant points are then products with the
    reference tables, and p is evaluated only where it can be nonzero: the
    plan of the mesh and the level (`_MaskedPlan`), then its energy."""
    plan = _MaskedPlan(disc, weight if lam != 0.0 else None, side)
    return plan.energy(u_values, lam, extra, extra_grad)


def _channel_plan(disc, weight, t):
    """The `_MaskedPlan` of the channel region x1 < t."""
    return _MaskedPlan(disc, weight, lambda x1, rho, _t=t: _t - x1)


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
        else fem.Discretization(mesh)
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
    n = disc.dimension

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
    return FrequencyTrace(radii, D, H, D / H)


def frequency_channel(field, eps, t_list, weight=None, lam=0.0,
                      mesh=None, gradient=None) -> FrequencyTrace:
    """Channel frequency N_eps(t) = eps * E(t) / Hc(t) with E(t) the energy
    over the region x1 < t and Hc the channel section mass at x1 = t."""
    disc, values, extra, extra_grad, evaluator = _unpack_field(
        field, mesh, gradient)
    t_list = np.asarray(sorted(float(t) for t in t_list))
    if np.any(t_list <= 0) or np.any(t_list >= 1):
        raise ValueError("sections must lie strictly inside the tube (0, 1)")
    n = disc.dimension

    D = np.empty(len(t_list))
    H = np.empty(len(t_list))
    for i, t in enumerate(t_list):
        D[i] = _channel_plan(disc, weight if lam != 0.0 else None,
                             t).energy(values, lam, extra, extra_grad)
        H[i] = ch.htilde(evaluator, t, eps, n)[1]
    return _channel_trace(eps, t_list, D, H)


def _channel_trace(eps, t_list, D, H) -> FrequencyTrace:
    """The channel frequency trace of the energies D and the channel masses
    H at the sections `t_list`; a mass that is not positive raises."""
    for t, hc in zip(t_list, H):
        if hc <= 0:
            raise ValueError(f"channel mass vanishes at section {t}")
    return FrequencyTrace(t_list, D, H, eps * D / H)


# ----------------------------------------------------------------------------
# Blow-up views
# ----------------------------------------------------------------------------

_KINDS = ("RightJunction", "Channel", "LeftJunction", "Normalized")


def _frame(kind: str, eps: float, x0: float | None = None,
           ktilde: float | None = None):
    """The map (center, anchor, scale) of a blow-up view, checked."""
    if kind not in _KINDS:
        raise ValueError(f"unknown blow-up kind {kind!r}")
    if not 0 < eps < 0.5:
        raise ValueError("eps out of range")
    if kind == "Channel" and (x0 is None or not 0 < x0 < 1):
        raise ValueError("Channel view needs x0 in (0, 1)")
    if kind == "Normalized" and (ktilde is None or ktilde <= 0):
        raise ValueError("Normalized view needs ktilde > 0")
    return {"RightJunction": (1.0, 1.0, eps), "Channel": (x0, 1.0, eps),
            "LeftJunction": (0.0, 0.0, eps),
            "Normalized": (0.0, 0.0, 1.0)}[kind]


def _view_points(frame, x1, rho):
    """The points (x1, rho) at which a view with the map `frame` reads
    its field for the view points (x1, rho)."""
    center, anchor, scale = frame
    x1 = np.asarray(x1, dtype=float)
    rho = np.asarray(rho, dtype=float)
    return center + scale * (x1 - anchor), scale * rho


def _denominator(kind: str, eps: float, mass: float | None) -> float:
    """A view's denominator: eps for RightJunction, else the square root
    of the field's `mass` (its Htilde at x0 or at eps, or its half-sphere
    mass over Gamma-_ktilde), which must be positive."""
    if kind == "RightJunction":
        return eps
    if mass <= 0:
        what = "surface" if kind == "Normalized" else "section"
        raise ValueError(f"degenerate field: {what} mass vanishes")
    return math.sqrt(mass)


def blowup(field, kind: str, eps: float, x0: float | None = None,
           ktilde: float | None = None, dimension: int = 3):
    """One of the four rescaled views of `field`, as a function of
    (x1, rho):

    RightJunction: (1/eps) u(e1 + eps(x - e1));
    Channel:       u(eps(x1-1) + x0, eps x') / sqrt(Htilde(x0));
    LeftJunction:  u(eps x) / sqrt(section mass at x1 = eps);
    Normalized:    u / sqrt(half-sphere mass over Gamma-_ktilde).

    Each view evaluates field(center + scale (x1 - anchor), scale rho) / den
    with the map (`_frame`) and the denominator (`_denominator`) fixed
    here.
    """
    frame = _frame(kind, eps, x0, ktilde)
    mass = None
    if kind == "Channel":
        mass = ch.htilde(field, x0, eps, dimension)[0]
    elif kind == "LeftJunction":
        mass = ch.htilde(field, eps, eps, dimension)[0]
    elif kind == "Normalized":
        mass = cs.half_sphere_mass(field, 0.0, ktilde, -1, dimension)
    den = _denominator(kind, eps, mass)

    def view(x1, rho):
        return field(*_view_points(frame, x1, rho)) / den
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
