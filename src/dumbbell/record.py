"""The run record: its JSON form, the table of verdict rules that judges
it, and the CSV/SVG reports drawn from its verdicts."""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field as dfield

import numpy as np

from .scaled import ScaledAmplitude

__all__ = ["ProfileConstants", "RunRecord", "verify", "emit", "load_record"]


def _is_real(value) -> bool:
    """A JSON or numpy number; bool is an int subclass and is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_decreasing(eps) -> None:
    """The order of every eps sweep, configured or recorded."""
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps sweep must be strictly decreasing")


@dataclass
class ProfileConstants:
    """Scalar outputs of the four profile solves.

    c_hat = 1/sqrt(m_phihat) normalizes PhiHat to unit section mass at the
    junction; phihat0 is the ground-mode coefficient of the normalized
    profile at the tube entrance."""

    lam_k0: float
    d0: float
    d0_spread: float
    c_phi: float
    c_phihat: float
    m_phihat: float
    a0_phihat: float
    norm_gamma: dict
    level: int

    @property
    def c_hat(self) -> float:
        return 1.0 / math.sqrt(self.m_phihat)

    @property
    def phihat0(self) -> float:
        return self.a0_phihat * self.c_hat

    def to_dict(self) -> dict:
        d = asdict(self)
        d["norm_gamma"] = {repr(float(k)): v
                           for k, v in self.norm_gamma.items()}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ProfileConstants":
        d = dict(d)
        d["norm_gamma"] = {float(k): float(v)
                           for k, v in d["norm_gamma"].items()}
        return cls(**d)


@dataclass
class RunRecord:
    config_hash: str
    config: dict
    constants: ProfileConstants
    sweep: list
    verdicts: dict = dfield(default_factory=dict)

    def to_dict(self) -> dict:
        return {"config_hash": self.config_hash, "config": self.config,
                "constants": self.constants.to_dict(), "sweep": self.sweep,
                "verdicts": self.verdicts}

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        """The record a `to_dict` blob holds.  A blob that lacks a key, or
        a sweep entry without a numeric eps and an object of numeric
        ratios, or with a `b_defect` but not two amplitudes `b_defect` and
        `b_cascade`, or a sweep whose eps do not strictly decrease, raises
        ValueError."""
        if not isinstance(d, dict):
            raise ValueError("a record is a JSON object")
        keys = ("config_hash", "config", "constants", "sweep", "verdicts")
        missing = [k for k in keys if k not in d]
        if missing:
            raise ValueError(f"record lacks {', '.join(missing)}")
        if not isinstance(d["sweep"], list):
            raise ValueError("record sweep is not a list")
        for i, entry in enumerate(d["sweep"]):
            try:
                if not (_is_real(entry["eps"])
                        and all(map(_is_real, entry["ratios"].values()))):
                    raise TypeError("eps and every ratio must be numbers")
                if "b_defect" in entry:
                    ScaledAmplitude.from_dict(entry["b_defect"])
                    ScaledAmplitude.from_dict(entry["b_cascade"])
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise ValueError(f"sweep entry {i} malformed: "
                                 f"{type(exc).__name__}: {exc}") from exc
        # the final deviation and the trend are read in sweep order
        _check_decreasing([entry["eps"] for entry in d["sweep"]])
        try:
            constants = ProfileConstants.from_dict(d["constants"])
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"record constants malformed: {exc}") from exc
        return cls(d["config_hash"], d["config"], constants, d["sweep"],
                   d["verdicts"])

    def series(self, name: str):
        """(eps list, value list) for a named ratio series."""
        es, vs = [], []
        for entry in self.sweep:
            if name in entry["ratios"]:
                es.append(entry["eps"])
                vs.append(entry["ratios"][name])
        return es, vs


def load_record(path: str) -> RunRecord:
    with open(path) as fh:
        return RunRecord.from_dict(json.load(fh))


# ----------------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------------

# One row per verdict family (a series named `family` or `family[...]`):
# its rule and the formula of the value it judges.  A value's deviation is
# |value - target|; R6, a sup ratio, is its own deviation (target 0).
#   trend:    the deviation converges (its log-log slope against eps is
#             above 0.1) and ends under `guard`, or it stays below `floor`,
#             the discretization floor, where the slope is mesh noise;
#   band:     the last value lies inside (low, high);
#   complete: the sweep has `entries` eps or more, none errored; its
#             verdict is written only when it fails.
# Under every kind a non-finite value fails its verdict, wherever it sits.
_TREND = {"kind": "trend", "target": 1.0, "guard": 0.15, "floor": 5e-3}
_RULES = {
    "R1": ({**_TREND, "guard": 0.05},
           "lam_eps / lam_k0(restricted right half)"),
    "R2": (_TREND,
           "eps^-1 exp(-sqrt(l1)(x0-1)/eps) sqrt(Htilde(x0)) / (d0 c_Phi)"),
    "R3": (_TREND, "eps^-1 exp(sqrt(l1)/eps) sqrt(Htilde(eps)) "
                   "/ (d0 c_Phi sqrt(m_PhiHat))"),
    "R4": (_TREND, "[d_eps/(N eps^(N-1) sqrt(Htilde(eps)))] "
                   "/ (-c_PhiHat/sqrt(m_PhiHat))"),
    "R5": (_TREND, "exp(sqrt(l1)/eps) eps^-N sqrt(int_{Gamma-_kt} u^2 "
                   "dsigma) / (sqrt(normGamma_Ubar(kt)) c_PhiHat c_Phi d0)"),
    "R6": ({**_TREND, "target": 0.0},
           "sup_{0.5<=|x|<=1.5} |exp(sqrt(l1)/eps) u/eps^N "
           "- c_PhiHat c_Phi d0 Ubar| / sup|...Ubar|"),
    # the decaying-mode coefficient reconstructed from the propagated
    # amplitude and the left-junction transfer constants against the one
    # measured by defect next to the junction, at the direct-track eps
    "cascade_B": ({"kind": "band", "target": 1.0, "low": 1 / 3, "high": 3.0},
                  "B(defect at t=0.05) / [(phihat0 - c_hat) sqrt(Htilde(eps)) "
                  "exp(-sqrt(l1)/eps)]"),
    # an errored entry is missing from every series above, and a sweep of
    # one eps has no trend to classify
    "sweep_errors": ({"kind": "complete", "entries": 2},
                     "at least two eps entries, each solved without error"),
}


def _classify(eps, devs) -> str:
    """Trend of a deviation series by log-log slope (deviation vs eps);
    "single" when fewer than two points give a slope."""
    pairs = [(e, d) for e, d in zip(eps, devs)
             if d is not None and np.isfinite(d) and d > 0]
    if len(pairs) < 2:
        return "single"
    x = np.log([e for e, _ in pairs])
    y = np.log([d for _, d in pairs])
    slope = float(np.polyfit(x, y, 1)[0])
    if slope > 0.1:
        return "converging"
    if slope < -0.1:
        return "diverging"
    return "flat"


def _series(record: RunRecord) -> dict:
    """Every series a rule judges, name -> (eps, values, extra keys): the
    ratio series, cascade_B on the direct-track entries and sweep_errors."""
    names = sorted({k for entry in record.sweep for k in entry["ratios"]})
    out = {name: (*record.series(name), {}) for name in names}
    es, vs = [], []
    for entry in record.sweep:
        if entry.get("track") == "direct" and "b_defect" in entry:
            bd = ScaledAmplitude.from_dict(entry["b_defect"])
            bc = ScaledAmplitude.from_dict(entry["b_cascade"])
            es.append(entry["eps"])
            vs.append(math.nan if bd.is_zero() or bc.is_zero()
                      else (bd / bc).to_float())
    if es:
        out["cascade_B"] = (es, vs, {})
    errored = [e for e in record.sweep if "error" in e]
    out["sweep_errors"] = ([e["eps"] for e in errored],
                           [math.nan] * len(errored),
                           {"errors": [e["error"] for e in errored]})
    return out


def verify(record: RunRecord) -> dict:
    """Judge every series of the record by its family's row of `_RULES`;
    the record passes when every verdict does.  A series whose family has
    no row raises ValueError."""
    out = {}
    for name, (es, vs, extra) in _series(record).items():
        try:
            rule, formula = _RULES[name.split("[")[0]]
        except KeyError:
            raise ValueError(f"series {name!r} has no verdict rule") from None
        # a row without a target has no deviations
        devs = [abs(v - rule.get("target", math.nan)) for v in vs]
        final = devs[-1] if devs else math.nan
        finite = bool(devs) and bool(np.isfinite(devs).all())
        at_floor = False
        if rule["kind"] == "trend":
            verdict = _classify(es, devs)
            at_floor = finite and max(devs) < rule["floor"]
            ok = finite and final < rule["guard"] \
                and (verdict == "converging" or at_floor)
        elif rule["kind"] == "band":
            ok = finite and rule["low"] < vs[-1] < rule["high"]
            verdict = "converging" if ok else "flat"
        else:
            if not es and len(record.sweep) >= rule["entries"]:
                continue
            ok, verdict = False, "errored"
        out[name] = {"formula": formula, "rule": dict(rule), "eps": es,
                     "values": vs, "deviations": devs, **extra,
                     "verdict": verdict, "final_deviation": final,
                     "at_floor": at_floor, "pass": bool(ok)}
    out["overall_pass"] = all(v["pass"] for v in out.values())
    return out


# ----------------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------------

def emit(record: RunRecord, out_dir: str,
         formats=("json", "csv", "svg")) -> list:
    """Write the record and per-series tables/plots; returns paths.  An
    unknown format raises ValueError before anything is written."""
    unknown = sorted(set(formats) - {"json", "csv", "svg"})
    if unknown:
        raise ValueError(f"unknown report format(s): {', '.join(unknown)}")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    if "json" in formats:
        p = os.path.join(out_dir, "record.json")
        with open(p, "w") as fh:
            json.dump(record.to_dict(), fh, indent=1)
        paths.append(p)
    groups: dict = {}
    for name in record.verdicts:
        if name != "overall_pass":
            groups.setdefault(name.split("[")[0], []).append(name)
    if "csv" in formats:
        for base, members in groups.items():
            p = os.path.join(out_dir, f"{base}.csv")
            with open(p, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["series", "eps", "value", "deviation"])
                for m in members:
                    v = record.verdicts[m]
                    for e, val, dev in zip(v["eps"], v["values"],
                                           v["deviations"]):
                        w.writerow([m, repr(e), repr(val), repr(dev)])
            paths.append(p)
    if "svg" in formats:
        for base, members in groups.items():
            p = os.path.join(out_dir, f"{base}.svg")
            _write_svg(p, base, {m: record.verdicts[m] for m in members})
            paths.append(p)
    return paths


def _write_svg(path: str, title: str, series: dict):
    """Log-linear convergence plot: eps on a log axis, one polyline per
    series variant."""
    W, H, ml, mr, mt, mb = 640, 420, 70, 20, 40, 50
    finite = {name: [(e, v) for e, v in zip(s["eps"], s["values"])
                     if np.isfinite(v)] for name, s in sorted(series.items())}
    pts_all = [p for pts in finite.values() for p in pts]
    if not pts_all:
        xs = [0.1, 0.3]
        ys = [0.0, 1.0]
    else:
        xs = [math.log10(e) for e, _ in pts_all]
        ys = [v for _, v in pts_all]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def X(e):
        return ml + (math.log10(e) - x0) / (x1 - x0) * (W - ml - mr)

    def Y(v):
        return H - mb - (v - y0) / (y1 - y0) * (H - mt - mb)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W/2:.0f}" y="24" text-anchor="middle" '
        f'font-size="16">{title}</text>',
        f'<line x1="{ml}" y1="{H-mb}" x2="{W-mr}" y2="{H-mb}" '
        'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H-mb}" stroke="black"/>',
        f'<text x="{W/2:.0f}" y="{H-12}" text-anchor="middle" '
        'font-size="12">eps (log scale)</text>',
    ]
    for j, (name, pts) in enumerate(finite.items()):
        if not pts:
            continue
        col = colors[j % len(colors)]
        poly = " ".join(f"{X(e):.2f},{Y(v):.2f}" for e, v in pts)
        lines.append(f'<polyline points="{poly}" fill="none" '
                     f'stroke="{col}" stroke-width="1.5"/>')
        for e, v in pts:
            lines.append(f'<circle cx="{X(e):.2f}" cy="{Y(v):.2f}" r="3" '
                         f'fill="{col}"/>')
        lines.append(f'<text x="{W-mr-4}" y="{mt+14*(j+1)}" '
                     f'text-anchor="end" font-size="11" '
                     f'fill="{col}">{name}</text>')
    for v in np.linspace(y0, y1, 5):
        lines.append(f'<text x="{ml-6}" y="{Y(v)+4:.1f}" text-anchor="end" '
                     f'font-size="10">{v:.4g}</text>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
