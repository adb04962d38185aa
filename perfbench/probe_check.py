"""Check that the clock probe tracks native code as well as Python code.

    python3 perfbench/probe_check.py

`op_norm_s` and `setup_s` rescale wall seconds by a pure-Python clock
probe.  That removes the machine's speed drift only if a slower regime
slows the program's native code (sparse LU, numpy array arithmetic, sparse
matrix assembly) as much as it slows the probe.  This script alternates the
probe with three native kernels and one `profiles` operation for SECONDS.

A regime lasts minutes, so the speed of the regime a cycle ran in is taken
as the median probe of the WINDOW cycles on either side of it, leaving its
own probe out: sorting by a cycle's own probe would put the cycles whose
probe was slow by chance in the slow third and bias its ratios down.  The
script splits the cycles into thirds by regime speed, fastest first, and
prints each kernel's median time over the regime probe per third.  Flat
ratios mean the probe tracks that kernel.  The slope of log(kernel)
against log(regime probe) is 1 for a kernel that slows exactly like the
probe.  The figures mean something only when the probe moved by a fifth
or more during the run.
"""

import gc
import json
import math
import shutil
import statistics
import sys
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import run

KERNELS = ("op", "splu", "numpy", "coo")
WINDOW = 3
SECONDS = 600


def native_kernels():
    """Three fixed native kernels, each taking about half a probe."""
    n = 150
    tri = sp.diags([-1, 2, -1], [-1, 0, 1], shape=(n, n))
    lap = (sp.kron(sp.eye(n), tri) + sp.kron(tri, sp.eye(n))).tocsc()
    rng = np.random.default_rng(0)
    rhs = rng.random(n * n)
    big = rng.random(2_000_000)
    rows = rng.integers(0, 50_000, 600_000)
    cols = rng.integers(0, 50_000, 600_000)

    def splu():
        lu = spla.splu(lap)
        for _ in range(20):
            lu.solve(rhs)

    def numpy():
        for _ in range(10):
            np.sort(np.sqrt(big * big + 1.0)[:200_000])

    def coo():
        for _ in range(5):
            sp.coo_matrix((big[:600_000], (rows, cols)),
                          shape=(50_000, 50_000)).tocsr()

    return {"splu": splu, "numpy": numpy, "coo": coo}


def timed(fn):
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def regime_table(cycles):
    """Per third of `cycles` (in the order they ran) by regime speed: the
    median regime probe, and for each kernel the median time over the
    regime probe, with the kernel's log-log slope against it."""
    regime = []
    for i in range(len(cycles)):
        near = cycles[max(0, i - WINDOW):i] + cycles[i + 1:i + 1 + WINDOW]
        regime.append(statistics.median(c["probe"] for c in near))
    order = sorted(range(len(cycles)), key=regime.__getitem__)
    third = len(order) // 3
    parts = (order[:third], order[third:-third], order[-third:])
    probes = [statistics.median(regime[i] for i in part) for part in parts]
    xs = [math.log(r) for r in regime]
    rows = {}
    for name in KERNELS:
        ratios = [statistics.median(cycles[i][name] / regime[i]
                                    for i in part) for part in parts]
        slope = statistics.linear_regression(
            xs, [math.log(c[name]) for c in cycles]).slope
        rows[name] = (ratios, slope)
    return probes, rows


def main():
    pkg = run.import_package()
    work = run.WORK / "probe-check"
    work.mkdir(parents=True, exist_ok=True)
    cycles = []
    try:
        workload = run.Workload("profiles", pkg, work)
        workload.setup()
        kernels = native_kernels()
        kernels["op"] = lambda: workload.operation(None)
        end = time.perf_counter() + SECONDS
        while time.perf_counter() < end:
            gc.collect()
            before = run.clock_probe()
            cycle = {name: timed(fn) for name, fn in kernels.items()}
            cycle["probe"] = 0.5 * (before + run.clock_probe())
            cycles.append(cycle)
            print(json.dumps(cycle), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(cycles) < 2 * WINDOW:
        raise SystemExit("probe_check: too few cycles")
    probes, rows = regime_table(cycles)
    print(f"{len(cycles)} cycles; median time / regime probe per third "
          f"(fast, middle, slow)")
    print("probe s  " + "  ".join(f"{p:.3f}" for p in probes))
    for name, (ratios, slope) in rows.items():
        print(f"{name:8s} " + "  ".join(f"{r:.3f}" for r in ratios)
              + f"  slope {slope:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
