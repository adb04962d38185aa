"""Reference check of one benchmark operation.

Works on plain dicts (`RunRecord.to_dict()` or `ProfileConstants.to_dict()`)
so it needs nothing from the dumbbell package and can be tested on
synthetic records.  An operation fails when any of these holds:

- a sweep entry carries "error" (even when `overall_pass` is true: verify
  drops an errored eps from its series and can still pass);
- a value the reference holds is missing, non-finite, or outside its
  tolerance;
- a verdict that passed on the reference run now fails.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")


def _eps_key(eps):
    return f"sweep[eps={float(eps)!r}]"


def flatten_constants(constants: dict) -> dict:
    out = {}
    for k, v in constants.items():
        if k == "norm_gamma":
            for kt, m in v.items():
                out[f"constants.norm_gamma[{float(kt)!r}]"] = float(m)
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            out[f"constants.{k}"] = float(v)
    return out


def flatten_record(record: dict) -> dict:
    """Named values of a sweep record that the reference pins down."""
    out = flatten_constants(record["constants"])
    for entry in record["sweep"]:
        key = _eps_key(entry["eps"])
        for name in ("lam_eps", "lam_ref", "n_eps_half"):
            if name in entry:
                out[f"{key}.{name}"] = float(entry[name])
        for name, v in entry.get("ratios", {}).items():
            out[f"{key}.ratios.{name}"] = float(v)
    for name, v in record["verdicts"].items():
        if name == "overall_pass":
            out["verdict.overall_pass"] = bool(v)
        else:
            out[f"verdict.{name}.pass"] = bool(v["pass"])
    return out


def compare(values: dict, reference: dict) -> list:
    """Failure messages for `values` against one workload's reference
    (empty = pass).  `reference["values"]` holds the expected values and
    `reference["rel_tol"]` a relative tolerance for each number; `abs_tol`
    keeps roundoff-sized diagnostics from failing on relative noise.

    Keys in `values` that the reference does not name are ignored, so a
    record may grow new diagnostics without failing the check."""
    failures = []
    for key, ref in reference["values"].items():
        if key not in values:
            failures.append(f"{key}: missing")
            continue
        got = values[key]
        if isinstance(ref, bool):
            if ref and not got:
                failures.append(f"{key}: passed on the reference, now fails")
            continue
        if not math.isfinite(got):
            failures.append(f"{key}: non-finite value {got!r}")
            continue
        rel = reference["rel_tol"][key]
        if abs(got - ref) > rel * abs(ref) + reference["abs_tol"]:
            failures.append(f"{key}: {got!r} differs from reference {ref!r} "
                            f"by more than rel {rel:g}")
    return failures


def check_record(record: dict, reference: dict) -> list:
    failures = [f"{_eps_key(e['eps'])}: errored: {e['error']}"
                for e in record["sweep"] if "error" in e]
    failures += compare(flatten_record(record), reference)
    return failures


def check_constants(constants: dict, reference: dict) -> list:
    return compare(flatten_constants(constants), reference)


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)
