"""Spans around the public functions of each dumbbell module.

The tracer patches module attributes and class methods in place, so the
package itself carries no timing code.  A span is (name, start, end,
parent, info): `parent` is the index of the enclosing span or -1, `info`
holds counts recorded at the same boundary.  Calls are strictly nested
(the benchmark runs with jobs=1, on one thread), so a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span name).  "Class.method" patches the method on the
# class.  pipeline and profiles import the mesh functions by name, so those
# names are patched where they are used as well as in `mesh`.
TARGETS = [
    ("mesh", "build_dumbbell_mesh", "mesh.build"),
    ("mesh", "build_profile_mesh", "mesh.build"),
    ("mesh", "refine", "mesh.refine"),
    ("pipeline", "build_dumbbell_mesh", "mesh.build"),
    ("pipeline", "refine", "mesh.refine"),
    ("profiles", "build_profile_mesh", "mesh.build"),
    ("profiles", "refine", "mesh.refine"),
    # the class stays unwrapped: fem.assemble tests isinstance against it
    ("fem", "Discretization.__init__", "fem.discretization"),
    ("fem", "assemble", "fem.assemble"),
    ("fem", "assemble_stiffness", "fem.assemble"),
    ("fem", "assemble_mass", "fem.assemble"),
    ("fem", "assemble_load", "fem.assemble"),
    # solve_dirichlet calls spla.splu itself; that stays in its self time
    ("fem", "solve_dirichlet", "fem.solve_dirichlet"),
    ("fem", "AssembledSystem.lu", "fem.factor"),
    ("fem", "eigen_smallest", "fem.eigsh"),
    ("fem", "refine_eigenpair", "fem.polish"),
    ("fem", "Discretization.locate", "fem.locate"),
    ("fem", "FieldSolution.evaluate", "fem.evaluate"),
    ("cross_section", "disk_ground_mode", "cross_section"),
    ("cross_section", "project_sphere", "cross_section"),
    ("cross_section", "project_section", "cross_section"),
    ("cross_section", "half_sphere_mass", "cross_section"),
    ("cross_section", "section_mass", "cross_section"),
    ("channel", "htilde", "channel"),
    ("channel", "hminus", "channel"),
    ("channel", "fit_channel_mode", "channel"),
    ("channel", "propagate", "channel"),
    ("channel", "spherical_fit", "channel"),
    ("almgren", "frequency_channel", "almgren.frequency"),
    ("almgren", "frequency_exterior", "almgren.frequency"),
    ("almgren", "blowup", "almgren.views"),
    ("almgren", "compare_views", "almgren.views"),
    ("profiles", "compute_u0", "profiles.u0"),
    ("profiles", "compute_Phi", "profiles.phi"),
    ("profiles", "compute_PhiHat", "profiles.phihat"),
    # compute_Ubar factors its shifted operator with spla.splu directly
    ("profiles", "compute_Ubar", "profiles.ubar"),
    ("pipeline", "run_profiles", "pipeline"),
    ("pipeline", "run_sweep", "pipeline"),
    ("pipeline", "emit", "pipeline.emit"),
]

# Per-layer metrics: (metric name, unit, how it is computed from one
# operation's spans).  "self:<span>" sums self times, "calls:<span>" counts
# spans, "info:<key>" sums a recorded count.
LAYER_METRICS = [
    ("mesh.build_s", "s", "self:mesh.build"),
    ("mesh.refine_s", "s", "self:mesh.refine"),
    ("mesh.cells", "count", "info:cells"),
    ("fem.discretization_s", "s", "self:fem.discretization"),
    ("fem.assemble_s", "s", "self:fem.assemble"),
    ("fem.solve_dirichlet_s", "s", "self:fem.solve_dirichlet"),
    ("fem.factor_s", "s", "self:fem.factor"),
    ("fem.eigsh_s", "s", "self:fem.eigsh"),
    ("fem.polish_s", "s", "self:fem.polish"),
    ("fem.eigsh_calls", "count", "calls:fem.eigsh"),
    ("fem.lu_solves", "count", "info:lu_solves"),
    ("fem.free_dofs", "count", "info:free_dofs"),
    ("fem.locate_s", "s", "self:fem.locate"),
    ("fem.locate_calls", "count", "calls:fem.locate"),
    ("fem.locate_points", "count", "info:points"),
    ("fem.evaluate_s", "s", "self:fem.evaluate"),
    ("cross_section.s", "s", "self:cross_section"),
    ("cross_section.calls", "count", "calls:cross_section"),
    ("channel.s", "s", "self:channel"),
    ("channel.calls", "count", "calls:channel"),
    ("almgren.frequency_s", "s", "self:almgren.frequency"),
    ("almgren.frequency_calls", "count", "calls:almgren.frequency"),
    ("almgren.views_s", "s", "self:almgren.views"),
    ("almgren.compare_samples", "count", "info:samples"),
    ("profiles.u0_s", "s", "self:profiles.u0"),
    ("profiles.phi_s", "s", "self:profiles.phi"),
    ("profiles.phihat_s", "s", "self:profiles.phihat"),
    ("profiles.ubar_s", "s", "self:profiles.ubar"),
    ("pipeline.self_s", "s", "self:pipeline"),
    ("pipeline.emit_s", "s", "self:pipeline.emit"),
    ("pipeline.entries", "count", "info:entries"),
    ("pipeline.entry_errors", "count", "info:entry_errors"),
]


# metrics layer_totals derives from the ones above, and their units
DERIVED_UNITS = {
    "fem.locate_us_per_point": "us",
    "fem.locate_hit_frac": "frac",
    "trace.spans": "count",
    "trace.unattributed_s": "s",
}
UNITS = dict({name: unit for name, unit, _ in LAYER_METRICS}, **DERIVED_UNITS)


class _CountingLU:
    """Stands in for the SuperLU factor that AssembledSystem.lu returns and
    counts solves against the innermost open span."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.count("lu_solves")
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _info_hook(span_name):
    """Counts to record from a call's arguments and result, by span."""
    if span_name == "fem.discretization":
        return lambda args, res: {"cells": len(args[0].mesh.triangles)}
    if span_name == "fem.assemble":
        # only `assemble` returns a system; the form assemblers return matrices
        return lambda args, res: (
            {"free_dofs": len(res.free)} if hasattr(res, "free") else {})
    if span_name == "fem.locate":
        return lambda args, res: {
            "points": len(res[0]), "hits": int((res[0] >= 0).sum())}
    if span_name == "pipeline":
        # run_sweep returns the record; run_profiles a ProfileSet
        return lambda args, res: ({
            "entries": len(res.sweep),
            "entry_errors": sum("error" in e for e in res.sweep),
        } if hasattr(res, "sweep") else {})
    if span_name == "almgren.views":
        return lambda args, res: (
            {"samples": int(res["samples"])} if isinstance(res, dict) else {})
    return None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []      # [name, start, end, parent, info]
        self._stack = []
        self._undo = []

    # -- recording ------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx):
        self.spans[idx][2] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    def count(self, key):
        if self._stack:
            info = self.spans[self._stack[-1]][4]
            info[key] = info.get(key, 0) + 1

    def wrap(self, name, fn):
        hook = _info_hook(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                self.spans[idx][4].update(hook(args, res))
            return res
        return traced

    # -- installing -----------------------------------------------------------

    def install(self, package):
        """Patch every target in `package` (the imported dumbbell package)."""
        for mod_name, attr, span in TARGETS:
            owner = importlib.import_module(f"{package.__name__}.{mod_name}")
            name = attr
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(owner, cls_name)
            original = vars(owner)[name]
            wrapped = self.wrap(span, original)
            if span == "fem.factor":
                wrapped = self._counting_lu(wrapped)
            setattr(owner, name, wrapped)
            self._undo.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _counting_lu(self, lu_method):
        @functools.wraps(lu_method)
        def lu(system):
            return _CountingLU(lu_method(system), self)
        return lu

    # -- output ----------------------------------------------------------------

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "info": i}
                for n, s, e, p, i in self.spans]


def self_times(spans):
    """Self time of every span: duration minus its children's durations."""
    out = [e - s for _, s, e, _, _ in spans]
    for _, s, e, p, _ in spans:
        if p >= 0:
            out[p] -= e - s
    return out


def subtree(spans, root):
    """Indices of `root` and every span below it.  Spans are stored in the
    order they open, so a subtree is the contiguous run after its root."""
    members = [root]
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] not in inside:
            break
        members.append(i)
        inside.add(i)
    return members


def layer_totals(spans, root):
    """Per-layer metrics of the operation whose span is `root`.

    The root span belongs to the benchmark; its self time is the part of
    the operation no public function covers (`unattributed_s`)."""
    idx = subtree(spans, root)
    selfs = self_times(spans)
    by_self = defaultdict(float)
    by_calls = defaultdict(int)
    info = defaultdict(int)
    for i in idx[1:]:
        name = spans[i][0]
        by_self[name] += selfs[i]
        by_calls[name] += 1
        for k, v in spans[i][4].items():
            info[k] += v
    out = {}
    for metric, _, rule in LAYER_METRICS:
        kind, key = rule.split(":")
        if kind == "self":
            out[metric] = by_self[key]
        elif kind == "calls":
            out[metric] = by_calls[key]
        else:
            out[metric] = info[key]
    pts = info["points"]
    out["fem.locate_us_per_point"] = 1e6 * by_self["fem.locate"] / pts \
        if pts else 0.0
    out["fem.locate_hit_frac"] = info["hits"] / pts if pts else 0.0
    out["trace.spans"] = len(idx) - 1
    out["trace.unattributed_s"] = selfs[root]
    return out
