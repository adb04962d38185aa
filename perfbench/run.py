"""Benchmark of the dumbbell profile stage and eps sweep.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_direct --seed 1 --seconds 50 \
        --trace 0

The package is imported from `src/` of the same checkout and driven
through its public API, the way `dumbbell profiles` and `dumbbell sweep`
drive it.  Each operation is timed, then checked against
`perfbench/reference.json` (see gate.py).  With `--trace 0` the last line
of stdout reports the end-to-end metrics (`op_norm_s`, `setup_s`,
`peak_rss_mb`); with `--trace 1` it reports the per-layer split from a
traced run (see spans.py).  Full results, with provenance and problem
size, go to `.bench_build/perfbench/`.

The workloads are fixed configurations: `--seed` is recorded but does not
change what is solved.  See perfbench/README.md for why each workload
exists and what each metric should show.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS thread: the workloads run one process with jobs=1, and a single
# thread keeps timings steady on a shared machine
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import gate  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 3
# The host's speed drifts by up to 50 % from one minute to the next, which
# no number of operations per run averages out.  op_norm_s and setup_s
# divide that out with a clock probe; probe_check.py shows that the drift
# slows native code about as much as the probe.  PROBE_REF_S is the probe's
# time on the reference machine (Intel Xeon, 2 vCPUs, Python 3.11.7) at its
# faster speed.
PROBE_ITERATIONS = 4_000_000
PROBE_REF_S = 0.26

# RunConfig overrides per workload; everything else is the default config
# (P2, level 1), with jobs=1 and the on-disk profile cache off.
WORKLOADS = {
    "profiles": {},
    "sweep_direct": {"eps_sweep": (0.3, 0.1)},
}
# meshes of the four profile solves (u0, Phi, PhiHat, Ubar)
PROFILE_DOMAINS = ("HalfPlus", "PhiDomain", "PhiHatDomain", "HalfMinus")


def import_package():
    """The dumbbell package of this checkout, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import dumbbell
        from dumbbell import cross_section, fem, pipeline  # noqa: F401
        from dumbbell import mesh  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dumbbell from {SRC}: "
                         f"{exc}")
    if Path(dumbbell.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: dumbbell imported from "
                         f"{dumbbell.__file__}, not from {SRC}")
    return dumbbell


class Workload:
    def __init__(self, name, pkg, work_dir):
        self.name = name
        self.pkg = pkg
        self.work_dir = work_dir
        self.cfg = pkg.pipeline.RunConfig(
            cache=False, jobs=1, out_dir=str(work_dir / "runs"),
            **WORKLOADS[name]).validate()
        self.sweep = name != "profiles"
        self.pset = None

    def setup(self):
        """Fill the lazy caches.  The sweeps also solve their ProfileSet and
        evaluate each profile once, which builds the point locators the
        sweep's comparisons reuse; otherwise the first operation of a
        process would pay for them and later ones would not."""
        cs = self.pkg.cross_section
        cs.disk_ground_mode(self.cfg.dimension)
        cs.gauss_legendre(cs.DEFAULT_QUAD_ORDER)
        if self.sweep:
            self.pset = self.pkg.pipeline.run_profiles(self.cfg,
                                                       return_fields=True)
            for name in ("u0", "phi", "phihat", "ubar"):
                getattr(self.pset, name)(1.5, 0.5)

    def operation(self, out_dir):
        pl = self.pkg.pipeline
        if not self.sweep:
            return pl.run_profiles(self.cfg, return_fields=True)
        record = pl.run_sweep(self.cfg, constants=self.pset)
        pl.emit(record, str(out_dir))
        return record

    def check(self, result, out_dir, reference):
        ref = reference["workloads"][self.name]
        if not self.sweep:
            return gate.check_constants(result.constants.to_dict(), ref)
        pl = self.pkg.pipeline
        failures = gate.check_record(result.to_dict(), ref)
        loaded = pl.load_record(str(out_dir / "record.json"))
        stored = loaded.to_dict()
        stored["verdicts"] = pl.verify(loaded)
        failures += [f"record.json: {f}"
                     for f in gate.check_record(stored, ref)]
        return failures

    def problem_size(self):
        """Cells and free DOFs of every mesh one operation solves on."""
        pl, fem, mesh = self.pkg.pipeline, self.pkg.fem, self.pkg.mesh
        cfg = self.cfg
        if self.sweep:
            meshes = [(f"eps={eps!r}",
                       pl.build_dumbbell_mesh(cfg.mesh_config(eps)),
                       cfg.sweep_level) for eps in cfg.eps_sweep]
        else:
            meshes = [(kind, mesh.build_profile_mesh(kind, cfg.mesh_config()),
                       cfg.profile_level) for kind in PROFILE_DOMAINS]
        out = {}
        for label, m, level in meshes:
            for _ in range(level):
                m = mesh.refine(m)
            disc = fem.Discretization(m, order=cfg.order)
            fixed = disc.boundary_nodes(*disc.dirichlet_tags())
            out[label] = {"cells": int(len(m.triangles)),
                          "free_dofs": int(disc.n_nodes - len(fixed))}
        return out


def run_op(workload, index, reference, tracer=None):
    """One timed operation, then its check.  Returns (seconds, failures,
    root span index or None)."""
    out_dir = workload.work_dir / f"op{index}"
    root = tracer.open("op") if tracer is not None else None
    t = time.perf_counter()
    try:
        result = workload.operation(out_dir)
        error = None
    except Exception:
        result, error = None, traceback.format_exc()
    seconds = time.perf_counter() - t
    if tracer is not None:
        tracer.close(root)
    if error is not None:
        failures = [f"raised: {error}"]
    else:
        try:
            failures = workload.check(result, out_dir, reference)
        except Exception:
            failures = [f"check raised: {traceback.format_exc()}"]
    shutil.rmtree(out_dir, ignore_errors=True)
    return seconds, failures, root


def clock_probe(iterations=PROBE_ITERATIONS):
    """Seconds of a fixed pure-Python loop: the machine's current speed."""
    t = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i
    return time.perf_counter() - t


def measure(workload, seconds, reference, trace, probe):
    """Run operations until the next one would overrun `seconds` (at least
    one; with tracing, one untraced operation then at least one traced).

    `probe` is a clock probe taken just before; another runs after each
    operation.  `norm_s` rescales an operation's seconds to the reference
    speed by the mean of the two probes around it."""
    ops = []
    tracer = None
    start = time.perf_counter()
    while True:
        if trace and tracer is None and ops:
            tracer = spans.Tracer()
            tracer.install(workload.pkg)
        gc.collect()
        secs, failures, root = run_op(workload, len(ops), reference, tracer)
        after = clock_probe()
        ops.append({"seconds": secs, "traced": tracer is not None,
                    "failures": failures, "root": root,
                    "probe_s": [probe, after],
                    "norm_s": secs * PROBE_REF_S / (0.5 * (probe + after))})
        probe = after
        if trace and tracer is None:
            continue
        typical = statistics.median(o["seconds"] for o in ops)
        if time.perf_counter() - start + typical > seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    return ops, tracer


def layer_metrics(ops, tracer):
    """Per-layer metrics of the traced operation of median duration, plus
    the tracing overhead against the untraced operation.  Also returns,
    for the results file, that operation's time, span count and the time
    no span covers; its self times and that time add up to its duration."""
    traced = sorted((o for o in ops if o["traced"]),
                    key=lambda o: o["seconds"])
    op = traced[(len(traced) - 1) // 2]
    layers = spans.layer_totals(tracer.spans, op["root"])
    accounting = {k: layers.pop(k)
                  for k in ("trace.spans", "trace.unattributed_s")}
    accounting["trace.op_s"] = op["seconds"]
    layers["trace.overhead_s"] = op["seconds"] - statistics.median(
        o["seconds"] for o in ops if not o["traced"])
    units = dict(spans.UNITS, **{"trace.overhead_s": "s"})
    return ({k: {"value": v, "unit": units[k]} for k, v in layers.items()},
            accounting)


def probe_setup(workload_name, seed):
    """Set-up times ({"wall_s", "norm_s"}) of fresh processes doing only
    the set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload_name, "--seed", str(seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
            check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(pkg):
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "dumbbell").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "dumbbell": pkg.__version__,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    probe = clock_probe()
    pkg = import_package()
    work_dir = WORK / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = Workload(args.workload, pkg, work_dir)
        workload.setup()
        setup = {"wall_s": time.perf_counter() - _T0 - probe}
        after = clock_probe()
        setup["norm_s"] = setup["wall_s"] * PROBE_REF_S / (
            0.5 * (probe + after))
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        reference = gate.load_reference()
        ops, tracer = measure(workload, args.seconds, reference,
                              bool(args.trace), after)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        size = workload.problem_size()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(ops)
    failed = sum(1 for o in ops if o["failures"])
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(pkg), "problem_size": size,
        "ops": [{k: v for k, v in o.items() if k != "root"} for o in ops],
    }
    if args.trace:
        metrics, result["accounting"] = layer_metrics(ops, tracer)
        result["spans"] = tracer.dump()
    else:
        setup_samples = [setup] + probe_setup(args.workload, args.seed)
        result["setup_samples"] = setup_samples
        metrics = {
            "op_norm_s": {"value": statistics.median(o["norm_s"]
                                                     for o in ops),
                          "unit": "s"},
            "setup_s": {"value": statistics.median(
                x["norm_s"] for x in setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result["metrics"] = metrics
    result["attempted"], result["failed"] = attempted, failed

    WORK.mkdir(parents=True, exist_ok=True)
    out_path = WORK / (f"{args.workload}-seed{args.seed}"
                       f"-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1)

    for o in ops:
        for f in o["failures"]:
            print(f"FAIL op: {f}", file=sys.stderr)
    walls = {"op_wall_s": statistics.median(o["seconds"] for o in ops
                                      if not o["traced"])}
    if not args.trace:
        walls["setup_wall_s"] = statistics.median(x["wall_s"]
                                             for x in setup_samples)
    summary = "  ".join(f"{k}={v:.6g} s" for k, v in walls.items())
    summary += "".join(f"  {k}={v['value']:.6g} {v['unit']}"
                       for k, v in metrics.items())
    print(f"{args.workload}: {summary}  "
          f"fail_frac={failed / attempted:g} "
          f"({failed}/{attempted})  ops={attempted}  results: {out_path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
