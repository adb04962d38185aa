"""Write perfbench/reference.json from the current checkout.

    python3 perfbench/capture_reference.py

For each workload, PROCESSES fresh processes each do the benchmark's
set-up and then REPEATS operations, the way one benchmark run does.  The
first operation of the first process gives the reference values.  Each
value's relative tolerance is MARGIN times the largest relative move seen
in any operation of any process, and never below its floor.  Every value
must be finite and every verdict must pass, or nothing is written.

Operations start ARPACK from different internal states, both within a
process and from one fresh process to the next; that is the run-to-run
variation a user sees.  Most values repeat to the last bit; the left-side
direct-track ratios at eps = 0.1 (R4, R5, R6) sit near the eigensolver's
noise floor and move.  A benchmark run does at most three sweep
operations, so REPEATS covers as many as one run does, in each process.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import gate
import run

PROCESSES = 3
REPEATS = 6
# The tolerance is ten times the largest move seen, so that a check does
# not fail on noise the seed itself shows, yet a change that moves a noisy
# ratio by an order of magnitude more than the eigensolver does still fails.
MARGIN = 10.0
# Floors of the relative tolerance.  A change of point location that moves
# evaluation points only across shared P2 edges stays under 1e-10.  The
# channel frequency n_eps_half is checked more loosely because a change of
# its cut-cell quadrature is expected; its x1 = 0.5 cut lies on mesh edges,
# so today's subdivision depth does not move it at all.
REL_FLOOR = 1e-8
N_EPS_HALF_FLOOR = 1e-6
# d0_spread is a roundoff-sized difference of equal samples (~5e-14); every
# other checked value is at least 1e-3 in magnitude
ABS_TOL = 1e-12


def operations(name):
    """Flattened values of REPEATS operations after one set-up, in this
    process."""
    pkg = run.import_package()
    work = run.WORK / f"capture-{name}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = run.Workload(name, pkg, work)
        workload.setup()
        runs = []
        for i in range(REPEATS):
            result = workload.operation(work / f"op{i}")
            if workload.sweep:
                record = result.to_dict()
                errors = [e["error"] for e in record["sweep"]
                          if "error" in e]
                if errors:
                    raise SystemExit(f"{name}: sweep entry errored: "
                                     f"{errors}")
                runs.append(gate.flatten_record(record))
            else:
                runs.append(gate.flatten_constants(
                    result.constants.to_dict()))
            print(f"{name}: operation {i + 1}/{REPEATS} done",
                  file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return runs


def capture(name):
    """(reference values, largest relative move of each value)."""
    per_process = []
    for p in range(PROCESSES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--worker", name],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True)
        per_process.append(json.loads(out.stdout.strip().splitlines()[-1]))
        print(f"{name}: process {p + 1}/{PROCESSES} done", flush=True)
    ref = per_process[0][0]
    spread = {}
    for key, v in ref.items():
        if isinstance(v, bool):
            if not v:
                raise SystemExit(f"{name}: {key} does not pass")
            continue
        if not math.isfinite(v):
            raise SystemExit(f"{name}: {key} is not finite ({v!r})")
    for p, runs in enumerate(per_process):
        moves = {key: max(abs(r[key] - v) for r in runs) / abs(v)
                 for key, v in ref.items() if not isinstance(v, bool)}
        print(f"{name}: process {p + 1}: largest move "
              f"{max(moves.values()):.3g}, "
              f"{'same' if runs == per_process[0] else 'other'} values "
              f"as process 1", flush=True)
        for key, m in moves.items():
            spread[key] = max(spread.get(key, 0.0), m)
    return ref, spread


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--worker", choices=sorted(run.WORKLOADS),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        print(json.dumps(operations(args.worker)))
        return 0
    pkg = run.import_package()
    out = {"provenance": run.provenance(pkg), "processes": PROCESSES,
           "repeats": REPEATS, "margin": MARGIN, "workloads": {}}
    for name in sorted(run.WORKLOADS):
        ref, spread = capture(name)
        rel_tol = {}
        for key, s in spread.items():
            floor = N_EPS_HALF_FLOOR if key.endswith(".n_eps_half") \
                else REL_FLOOR
            rel_tol[key] = max(floor, MARGIN * s)
        out["workloads"][name] = {"values": ref, "rel_tol": rel_tol,
                                  "abs_tol": ABS_TOL, "spread": spread}
        moved = {k: s for k, s in spread.items() if s > 0}
        print(f"{name}: {len(moved)} of {len(spread)} values moved, "
              f"largest {max(spread.values()):.3g}", flush=True)
    with open(gate.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {gate.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
