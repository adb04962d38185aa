import dataclasses
import json
import math
import os
import re
import threading
import time
import weakref
from concurrent.futures import CancelledError
from pathlib import Path

import numpy as np
import pytest

from dumbbell import channel as ch
from dumbbell import cli
from dumbbell import cross_section as cs
from dumbbell import fem
from dumbbell import pipeline as pl
from dumbbell import record as rd
from dumbbell.mesh import build_dumbbell_mesh
from dumbbell.scaled import ScaledAmplitude
from extended_polish_oracle import extended_refine_eigenpair
from sequential_entry_oracle import (sequential_eigenpair, sequential_entry,
                                     sequential_sweep)

COARSE = dict(eps_sweep=(0.3, 0.2), h0=0.2, grade_levels=6,
              profile_level=0, sweep_level=0)
# three eps, so that the middle entry of the sweep has neighbours on
# both sides: its build runs beside the first entry's factorization, and
# its readouts beside the third entry's
COARSE3 = dict(COARSE, eps_sweep=(0.3, 0.25, 0.2))


def synthetic_record(values_by_eps, name="R3"):
    """Record with a single hand-built ratio series and no solves."""
    sweep = [{"eps": e, "track": "direct", "ratios": {name: v}}
             for e, v in values_by_eps]
    constants = pl.ProfileConstants(
        lam_k0=1.64, d0=0.135, d0_spread=0.0, c_phi=0.337, c_phihat=0.373,
        m_phihat=122.6, a0_phihat=1.075, norm_gamma={1.0: 1.0}, level=0)
    return pl.RunRecord("deadbeef", {}, constants, sweep)


def unreachable(*args, **kwargs):
    raise AssertionError("a solve was entered")


def bounded_handoff(monkeypatch, seen=None, seconds=120):
    """Make the sweep's worker wait at most `seconds` for each
    restricted reference: a hand-off the sweep leaves unresolved then
    fails its entry with a TimeoutError instead of blocking the test.
    The type of whatever the wait raised is appended to `seen`."""
    full_pair = pl._full_pair

    def bounded(system, lam_k0, reference):
        def wait():
            try:
                return reference(timeout=seconds)
            except BaseException as exc:
                if seen is not None:
                    seen.append(type(exc))
                raise
        return full_pair(system, lam_k0, wait)

    monkeypatch.setattr(pl, "_full_pair", bounded)


# every entry carries these keys, in this order, on either track
ENTRY_KEYS = ["eps", "track", "lam_eps", "lam_ref", "eigen_residual", "fit",
              "spherical", "htilde_x0", "htilde_eps",
              "sqrt_htilde_eps_cascade", "b_cascade", "b_defect",
              "junction_probes", "n_eps_half", "comparisons", "samples",
              "ratios"]


class TestRunConfig:
    def test_sweep_must_decrease(self):
        with pytest.raises(ValueError):
            pl.RunConfig(eps_sweep=(0.2, 0.3)).validate()
        with pytest.raises(ValueError):
            pl.RunConfig(eps_sweep=(0.2, 0.2)).validate()

    def test_small_eps_validates(self):
        # eps < 0.1 runs the cascade track; no flag gates it
        pl.RunConfig(eps_sweep=(0.15, 0.1, 0.01)).validate()

    def test_single_eps_rejected(self):
        with pytest.raises(ValueError):
            pl.RunConfig(eps_sweep=(0.2,)).validate()

    @pytest.mark.parametrize("bad", [
        {"eps_sweep": (0.6, 0.3)},
        {"eps_sweep": (0.3, -0.1)},
        {"a_minus": -0.5},
        {"sweep_level": -1},
        {"profile_level": -1},
        {"jobs": 0},
        {"jobs": -1},
        {"sweep_level": 0.5},
        {"profile_level": True},
        {"grade_levels": 8.0},
        {"jobs": 1.5},
        # pinned: the sweep has one path
        {"jobs": 2},
        {"dimension": 3.0},
        {"dimension": False},
        # the weight rule: lam_k0 at most 0.8 lambda_1(D-)
        {"a_minus": 0.9},
        {"a_plus": 0.0},
        # mesh parameters, through MeshConfig.validate
        {"h0": 0.0},
        {"r_out": 6.0},
        {"dimension": 2},
        # a non-number, or a bool, where a number belongs
        {"a_minus": "x"},
        {"a_plus": True},
        {"h0": "0.15"},
        {"r_out": None},
        {"eps_sweep": (0.3, "0.1")},
        {"eps_sweep": 0.3},
        {"h0": math.nan},
        {"r_out": math.inf},
        # pinned: every run solves its own profiles
        {"cache": True},
    ])
    def test_rejects_out_of_range_fields(self, bad):
        with pytest.raises(ValueError):
            pl.RunConfig(**bad).validate()

    def test_hash_ignores_io_fields(self):
        a = pl.RunConfig(out_dir="x", jobs=1)
        b = pl.RunConfig(out_dir="y")
        assert a.hash() == b.hash()
        c = pl.RunConfig(h0=0.2)
        assert a.hash() != c.hash()


class TestVerify:
    def test_converging_series_passes(self):
        eps = [0.3, 0.25, 0.2, 0.15, 0.1]
        rec = synthetic_record([(e, 1.0 + 0.5 * e) for e in eps])
        v = pl.verify(rec)
        assert v["R3"]["verdict"] == "converging"
        assert v["R3"]["pass"]
        assert v["overall_pass"]

    def test_flat_series_fails(self):
        rec = synthetic_record([(0.3, 1.3), (0.2, 1.3), (0.1, 1.3)])
        v = pl.verify(rec)
        assert v["R3"]["verdict"] == "flat"
        assert not v["R3"]["pass"]
        assert not v["overall_pass"]

    def test_single_point_series(self):
        # a direct-only ratio in a sweep with one direct eps has no slope:
        # it is labelled "single" and passes only at the floor
        # (R6 is itself the deviation)
        for value, passes in ((0.0134, False), (0.002, True)):
            rec = synthetic_record([(0.1, value), (0.05, 0.0)], name="R6")
            del rec.sweep[1]["ratios"]["R6"]
            v = pl.verify(rec)
            assert v["R6"]["verdict"] == "single"
            assert v["R6"]["at_floor"] is passes
            assert v["R6"]["pass"] is passes

    def test_diverging_series_fails(self):
        rec = synthetic_record([(0.3, 1.01), (0.2, 1.1), (0.1, 1.4)])
        v = pl.verify(rec)
        assert v["R3"]["verdict"] == "diverging"
        assert not v["overall_pass"]

    def test_converging_but_large_final_fails(self):
        rec = synthetic_record([(0.3, 3.0), (0.2, 2.2), (0.1, 1.6)])
        v = pl.verify(rec)
        assert v["R3"]["verdict"] == "converging"
        assert not v["R3"]["pass"]

    def test_floor_series_passes_despite_slope_noise(self):
        # deviations never rise above the discretization floor: the trend
        # label is meaningless and must not fail the series
        rec = synthetic_record([(0.3, 1.0001), (0.2, 1.0004), (0.1, 1.0002)])
        v = pl.verify(rec)
        assert v["R3"]["at_floor"]
        assert v["R3"]["pass"]

    def test_nan_inside_a_floor_series_fails(self):
        # the finite points sit under the floor, but the NaN one was never
        # measured: the series cannot pass at the floor
        rec = synthetic_record([(0.3, 1.001), (0.2, math.nan), (0.1, 1.002)])
        v = pl.verify(rec)
        assert not v["R3"]["at_floor"]
        assert not v["R3"]["pass"]
        assert not v["overall_pass"]

    def test_nan_inside_a_converging_series_fails(self):
        rec = synthetic_record([(0.3, 1.2), (0.2, math.nan), (0.15, 1.05),
                                (0.1, 1.01)])
        v = pl.verify(rec)
        assert v["R3"]["verdict"] == "converging"
        assert not v["R3"]["pass"]
        assert not v["overall_pass"]

    def test_nan_inside_cascade_b_fails(self):
        # a zero defect amplitude reads NaN; the final ratio is in range
        rec = synthetic_record([(0.3, 1.001), (0.1, 1.002)])
        bc = ScaledAmplitude.from_float(2.0).scale_exp(-30.0)
        defects = (ScaledAmplitude.zero(), bc * ScaledAmplitude.from_float(1.05))
        for entry, bd in zip(rec.sweep, defects):
            entry["b_defect"], entry["b_cascade"] = bd.to_dict(), bc.to_dict()
        v = pl.verify(rec)["cascade_B"]
        assert math.isnan(v["values"][0])
        assert v["values"][1] == pytest.approx(1.05)
        assert not v["pass"]
        assert not pl.verify(rec)["overall_pass"]

    def test_r1_uses_tighter_guard(self):
        rec = synthetic_record([(0.3, 1.30), (0.2, 1.20), (0.1, 1.10)],
                               name="R1")
        v = pl.verify(rec)
        assert v["R1"]["verdict"] == "converging"
        assert not v["R1"]["pass"]  # final 10% > 5% guard

    def test_errored_entry_fails_sweep(self, tmp_path, capsys):
        rec = synthetic_record([(e, 1.0 + 0.5 * e)
                                for e in (0.3, 0.25, 0.2, 0.15)])
        rec.sweep.append({"eps": 0.1, "error": "RuntimeError: synthetic",
                          "ratios": {}})
        v = pl.verify(rec)
        assert v["R3"]["pass"]
        assert v["sweep_errors"]["eps"] == [0.1]
        assert "synthetic" in v["sweep_errors"]["errors"][0]
        assert not v["sweep_errors"]["pass"]
        assert not v["overall_pass"]
        rec.verdicts = v
        pl.emit(rec, str(tmp_path))
        assert (tmp_path / "sweep_errors.csv").exists()
        assert (tmp_path / "sweep_errors.svg").exists()
        assert cli.main(["verify", str(tmp_path / "record.json")]) == 2
        assert "sweep_errors: errored" in capsys.readouterr().out

    def test_series_without_a_rule_is_an_error(self, tmp_path, capsys):
        # these values would pass a 15 % trend rule; no rule is made up
        rec = synthetic_record([(0.3, 1.15), (0.2, 1.1), (0.1, 1.05)],
                               name="R9")
        with pytest.raises(ValueError, match=r"'R9' has no verdict rule"):
            pl.verify(rec)
        pl.emit(rec, str(tmp_path), formats=("json",))
        assert cli.main(["verify", str(tmp_path / "record.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "R9" in err

    def test_every_rule_is_named_in_readme(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## What is verified")[1].split("\n## ")[0]
        missing = [family for family in rd._RULES
                   if not re.search(rf"`{re.escape(family)}\b", section)]
        assert not missing

    @pytest.mark.parametrize("eps", [(), (0.1,)])
    def test_sweep_of_fewer_than_two_eps_fails(self, eps, tmp_path, capsys):
        # one eps has no trend, and an empty sweep has no series at all
        rec = synthetic_record([(e, 1.0001) for e in eps])
        v = pl.verify(rec)
        assert not v["sweep_errors"]["pass"]
        assert "at least two eps" in v["sweep_errors"]["formula"]
        assert not v["overall_pass"]
        rec.verdicts = v
        pl.emit(rec, str(tmp_path))
        assert cli.main(["verify", str(tmp_path / "record.json")]) == 2
        assert "sweep_errors: errored" in capsys.readouterr().out


class TestEmit:
    def test_json_round_trip_bit_exact(self, tmp_path):
        rec = synthetic_record([(0.3, 1.0 + math.pi * 1e-3), (0.2, 1.0002)])
        rec.verdicts = pl.verify(rec)
        paths = pl.emit(rec, str(tmp_path))
        back = pl.load_record(os.path.join(str(tmp_path), "record.json"))
        assert back.to_dict() == rec.to_dict()
        assert back.sweep[0]["ratios"]["R3"] == 1.0 + math.pi * 1e-3

    def test_csv_rows(self, tmp_path):
        eps = [0.3, 0.2, 0.1]
        rec = synthetic_record([(e, 1.0 + e) for e in eps])
        rec.verdicts = pl.verify(rec)
        pl.emit(rec, str(tmp_path), formats=("csv",))
        lines = open(tmp_path / "R3.csv").read().strip().splitlines()
        assert len(lines) == 1 + len(eps)
        assert lines[0] == "series,eps,value,deviation"
        assert float(lines[1].split(",")[1]) == 0.3

    def test_svg_polyline_per_variant(self, tmp_path):
        sweep = [{"eps": e, "track": "direct",
                  "ratios": {"R5[kt=0.5]": 1.0 + e, "R5[kt=1]": 1.0 - e}}
                 for e in (0.3, 0.2, 0.1)]
        rec = synthetic_record([])
        rec.sweep = sweep
        rec.verdicts = pl.verify(rec)
        pl.emit(rec, str(tmp_path), formats=("svg",))
        svg = open(tmp_path / "R5.svg").read()
        assert svg.count("<polyline") == 2
        assert svg.count("<circle") == 6

    def test_scaled_amplitudes_survive_serialization(self, tmp_path):
        rec = synthetic_record([(0.3, 1.1), (0.2, 1.05)])
        amp = ScaledAmplitude.from_float(3.25).scale_exp(-2000.0)
        rec.sweep[0]["htilde_eps"] = amp.to_dict()
        rec.verdicts = pl.verify(rec)
        pl.emit(rec, str(tmp_path))
        back = pl.load_record(os.path.join(str(tmp_path), "record.json"))
        got = ScaledAmplitude.from_dict(back.sweep[0]["htilde_eps"])
        assert got.sign == amp.sign
        assert got.exponent == amp.exponent
        assert got.mantissa == amp.mantissa


class _CountingLU:
    """A SuperLU factor that logs to `events` the thread that makes it,
    each solve's and the one that frees it."""

    def __init__(self, lu, events):
        self._lu, self._events = lu, events
        events.append(("made", threading.current_thread()))

    def solve(self, b):
        self._events.append(("solve", threading.current_thread()))
        return self._lu.solve(b)

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def __del__(self):
        self._events.append(("freed", threading.current_thread()))


def test_profile_stage_factors_each_operator_once(monkeypatch):
    # K on D+ (the u0 iteration), the two harmonic solves, and
    # K - lam_k0 M_p on D- (the Ubar inertia guard and solve); no ARPACK
    # run.  Solves: u0 12 (10 Krylov, 2 polish), Phi 1, PhiHat 1, Ubar 1.
    # A SuperLU factor freed on another thread than its own keeps its
    # memory, so each is made, solved on and freed by one thread: u0's by
    # the main thread, the other three by the stage's one worker thread
    lives, arpack = [], []
    splu, eigsh = fem.spla.splu, fem.spla.eigsh

    def counted(A, **kw):
        events = []
        lives.append(events)
        return _CountingLU(splu(A, **kw), events)

    monkeypatch.setattr(fem.spla, "splu", counted)
    monkeypatch.setattr(fem.spla, "eigsh", lambda *a, **kw:
                        arpack.append(a) or eigsh(*a, **kw))
    pl.run_profiles(pl.RunConfig(**COARSE))
    owners = []
    for events in lives:
        kinds = [kind for kind, _ in events]
        assert kinds[0] == "made" and kinds[-1] == "freed", kinds
        assert len({thread for _, thread in events}) == 1
        owners.append((events[0][1], kinds.count("solve")))
    main = threading.main_thread()
    assert sorted((thread is main, solves) for thread, solves in owners) \
        == [(False, 1), (False, 1), (False, 1), (True, 12)]
    assert len({thread for thread, _ in owners if thread is not main}) == 1
    assert arpack == []


def test_runs_leave_no_profile_cache(tmp_path):
    # every run solves its own profiles: the profile stage writes nothing,
    # and a sweep that solves them leaves only what emit writes
    cfg = pl.RunConfig(out_dir=str(tmp_path), **COARSE)
    pl.run_profiles(cfg)
    assert list(tmp_path.iterdir()) == []
    record = pl.run_sweep(cfg)
    written = pl.emit(record, cfg.out_dir)
    assert not (tmp_path / "cache").exists()
    assert sorted(map(str, tmp_path.iterdir())) == sorted(written)


@pytest.fixture(scope="module")
def coarse_pset():
    cfg = pl.RunConfig(**COARSE)
    return pl.run_profiles(cfg, return_fields=True)


@pytest.fixture(scope="module")
def coarse_record(tmp_path_factory, coarse_pset):
    out = str(tmp_path_factory.mktemp("sweep"))
    cfg = pl.RunConfig(out_dir=out, **COARSE)
    record = pl.run_sweep(cfg, coarse_pset)
    pl.emit(record, out)
    return cfg, record, out


class TestSweep:
    def test_entries_complete(self, coarse_record):
        _, rec, _ = coarse_record
        assert len(rec.sweep) == 2
        for entry in rec.sweep:
            assert "error" not in entry
            assert list(entry) == ENTRY_KEYS
            assert set(entry["comparisons"]) == {
                "right_vs_d0Phi", "left_vs_PhiHat", "channel_vs_psi1",
                "normalized_vs_Ubar"}
            assert entry["track"] == "direct"
            assert 1.0 < entry["lam_eps"] < 2.0
            assert entry["lam_eps"] < entry["lam_ref"]

    def test_ratio_series_present(self, coarse_record):
        _, rec, _ = coarse_record
        names = set(rec.sweep[0]["ratios"])
        assert {"R1", "R3", "R4", "R6"} <= names
        assert any(n.startswith("R2[") for n in names)
        assert any(n.startswith("R5[") for n in names)
        # each verdict names the row of the rule table that judged it
        assert set(rec.verdicts) == names | {"cascade_B", "overall_pass"}
        for name, v in rec.verdicts.items():
            if name != "overall_pass":
                assert v["rule"] == rd._RULES[name.split("[")[0]][0], name

    def test_ratios_near_one(self, coarse_record):
        _, rec, _ = coarse_record
        for entry in rec.sweep:
            for name, v in entry["ratios"].items():
                tol = 0.15 if name != "R6" else 1.0
                target = 1.0 if name != "R6" else 0.0
                assert abs(v - target) < tol, (name, v)

    def test_cascade_matches_direct_htilde(self, coarse_record):
        _, rec, _ = coarse_record
        for entry in rec.sweep:
            direct = ScaledAmplitude.from_dict(entry["htilde_eps"]).sqrt()
            casc = ScaledAmplitude.from_dict(
                entry["sqrt_htilde_eps_cascade"])
            assert (direct / casc).to_float() == pytest.approx(1.0, abs=0.02)

    def test_b_defect_matches_cascade(self, coarse_record):
        _, rec, _ = coarse_record
        for entry in rec.sweep:
            bd = ScaledAmplitude.from_dict(entry["b_defect"])
            bc = ScaledAmplitude.from_dict(entry["b_cascade"])
            assert (bd / bc).to_float() == pytest.approx(1.0, abs=0.5)

    def test_eigenpair_repeatable_in_one_process(self, coarse_pset):
        cfg = pl.RunConfig(**COARSE)
        lam_k0 = coarse_pset.constants.lam_k0
        first, first_ref = sequential_eigenpair(cfg, 0.2, lam_k0)
        second, second_ref = sequential_eigenpair(cfg, 0.2, lam_k0)
        assert first.lam == second.lam
        assert first_ref == second_ref
        assert np.array_equal(first.field.values, second.field.values)

    def test_entry_factors_twice_and_assembles_stiffness_once(
            self, coarse_pset, monkeypatch):
        # the hot path: one shifted factor for the dumbbell eigenpair, one
        # for the restricted reference, and one stiffness matrix for both;
        # 4 steps on the first and 3 on the second, one solve a step
        factored, assembled, solves = [], [], []
        factor, assemble = fem.factor, fem._assemble_form

        class CountingLU:
            def __init__(self, lu):
                self._lu = lu

            def solve(self, *args, **kwargs):
                solves.append(1)
                return self._lu.solve(*args, **kwargs)

        monkeypatch.setattr(fem, "factor",
                            lambda A: factored.append(A.shape)
                            or CountingLU(factor(A)))
        monkeypatch.setattr(fem, "_assemble_form",
                            lambda disc, kind, *args, **kwargs:
                            assembled.append(kind)
                            or assemble(disc, kind, *args, **kwargs))
        sequential_entry(pl.RunConfig(**COARSE), 0.3, coarse_pset)
        assert len(factored) == 2
        assert assembled.count("stiffness") == 1
        assert len(solves) == 4 + 3

    def test_restricted_reference_field_carries_its_residual(
            self, coarse_pset):
        cfg = pl.RunConfig(**COARSE)
        disc = fem.Discretization(build_dumbbell_mesh(cfg.mesh_config(0.3)))
        system = fem.assemble(disc, cfg.weight())
        ref = pl._restricted_reference(system, coarse_pset.constants.lam_k0)
        # the relative residual of the pair on the clamped subsystem
        sub = system.clamped(np.flatnonzero(disc.nodes[:, 0] <= 1.0 + 1e-14))
        u = ref.field.values[sub.free]
        Ku = sub.K @ u
        rel = np.linalg.norm(Ku - ref.lam * (sub.Mp @ u)) / np.linalg.norm(Ku)
        assert ref.field.residual == pytest.approx(rel, rel=1e-3)
        assert ref.field.residual > 0

    def test_eigenvalue_above_restricted_reference_fails_entry(
            self, coarse_pset, monkeypatch):
        # min-max on the nested spaces gives lam_eps <= lam_ref
        restricted = pl._restricted_reference

        def lowered(*args):
            ref = restricted(*args)
            return dataclasses.replace(ref, lam=0.9 * ref.lam)

        monkeypatch.setattr(pl, "_restricted_reference", lowered)
        with pytest.raises(ValueError, match="exceeds the restricted"):
            sequential_entry(pl.RunConfig(**COARSE), 0.3, coarse_pset)

    def test_warm_start_reaches_the_left_body(self, coarse_pset,
                                              monkeypatch):
        # eps = 0.1 is the deepest direct-track eps: there the left body
        # sits furthest below the peak.  The 4-step iterate must agree with
        # a 12-step one from the same start where R4-R6 read it.  The left
        # error falls by 1e-3 a step and measures 3e-14 at 4 steps on this
        # mesh, 3e-11 at 3 and 3e-8 at 2, so 1e-11 of the left peak
        # catches a cut to 3 steps
        # the full pair's iteration is the last one the entry runs
        calls = []
        iterate = fem._inverse_iteration
        monkeypatch.setattr(fem, "_inverse_iteration",
                            lambda system, lu, start, steps:
                            calls.append((system, start))
                            or iterate(system, lu, start, steps))
        cfg = pl.RunConfig(**COARSE)
        pair, _ = sequential_eigenpair(cfg, 0.1,
                                       coarse_pset.constants.lam_k0)
        system, start = calls[-1]
        deep = fem.refine_eigenpair(system, start, 12)
        left = pair.field.disc.nodes[:, 0] < -0.5
        u, v = pair.field.values[left], deep.field.values[left]
        assert np.max(np.abs(u - v)) <= 1e-11 * np.max(np.abs(v))
        assert pair.lam == pytest.approx(deep.lam, rel=1e-14, abs=0)

    @pytest.mark.parametrize("eps", [0.1, 0.09])
    def test_float64_polish_matches_the_extended_oracle(
            self, eps, coarse_pset, monkeypatch):
        # the deepest direct eps and a cascade one: the float64 steps keep
        # the digits that the long-double polish kept, where the entry
        # reads them.  Both eigenvalues come out bitwise equal here, and
        # the projections within 4e-14 (2.4e-12 on the default mesh down
        # to eps = 0.004)
        cfg = pl.RunConfig(**COARSE)
        lam_k0 = coarse_pset.constants.lam_k0
        pair, lam_ref = sequential_eigenpair(cfg, eps, lam_k0)
        # the reference's polish and the full pair's iteration, which
        # runs on a factor of its own
        monkeypatch.setattr(fem, "refine_eigenpair",
                            extended_refine_eigenpair)
        monkeypatch.setattr(fem, "_inverse_iteration",
                            lambda system, lu, start, steps:
                            extended_refine_eigenpair(system, start, steps))
        oracle, oracle_ref = sequential_eigenpair(cfg, eps, lam_k0)
        assert pair.lam == pytest.approx(oracle.lam, rel=1e-15, abs=0)
        assert lam_ref == pytest.approx(oracle_ref, rel=1e-15, abs=0)
        # R7 of the eigenvalue law divides by this gap
        assert lam_ref - pair.lam == pytest.approx(oracle_ref - oracle.lam,
                                                   rel=1e-6, abs=0)
        n = cfg.dimension
        mode = cs.disk_ground_mode(n)
        probes = [(cs.project_section, (t, eps, mode))
                  for t in np.linspace(*pl._FIT_WINDOW, pl._FIT_POINTS)]
        if eps >= 0.1:
            probes += [(cs.project_sphere, (0.0, r, -1, n))
                       for r in pl._SPHERICAL_RADII if r > eps]
        for project, args in probes:
            got = project(pair.field.evaluate, *args)
            want = project(oracle.field.evaluate, *args)
            assert got == pytest.approx(want, rel=1e-9, abs=0), (
                project.__name__, args[:2])

    def test_sample_counts_recorded(self, coarse_record):
        _, rec, _ = coarse_record
        full = {"right_vs_d0Phi": 75, "left_vs_PhiHat": 75,
                "channel_vs_psi1": 33, "R6": 75}
        full.update({f"normalized_vs_Ubar[kt={kt:g}]": 75
                     for kt in (0.5, 1.0, 1.5)})
        for entry in rec.sweep:
            assert entry["samples"] == full

    def test_non_finite_sample_fails_entry(self, coarse_pset):
        ubar = coarse_pset.ubar

        def ubar_with_hole(x1, rho):
            out = np.array(ubar(x1, rho), dtype=float)
            out.flat[0] = np.nan
            return out

        pset = dataclasses.replace(coarse_pset, ubar=ubar_with_hole)
        cfg = pl.RunConfig(**COARSE)
        with pytest.raises(ValueError, match=r"normalized_vs_Ubar\[kt=0.5\]"):
            sequential_entry(cfg, 0.3, pset)

    def test_cascade_track_entry(self, coarse_pset):
        # below eps = 0.1 the left-side scales come from the tube fit alone
        cfg = pl.RunConfig(**COARSE)
        entry = sequential_entry(cfg, 0.09, coarse_pset)
        assert entry["track"] == "cascade"
        assert list(entry) == ENTRY_KEYS
        assert entry["spherical"] is None
        assert entry["comparisons"] == entry["samples"] == {}
        assert entry["junction_probes"] == {}
        ratios = entry["ratios"]
        assert set(ratios) == {"R1", "R3"} | {f"R2[x0={x0:g}]"
                                              for x0 in pl._X0_LIST}
        for name, v in ratios.items():
            assert math.isfinite(v) and abs(v - 1.0) < 0.15, (name, v)
        sl1 = cs.disk_ground_mode(cfg.dimension).sqrt_lambda1
        f = entry["fit"]
        fit = ch.ModeFit(0.09, sl1, ScaledAmplitude.from_dict(f["A"]),
                         ScaledAmplitude.from_dict(f["B"]), tuple(f["window"]),
                         f["residual"], f["b_resolved"])
        for x0 in pl._X0_LIST:
            amp = ch.propagate(fit, x0)
            assert entry["htilde_x0"][repr(x0)] == (amp * amp).to_dict()

    def test_failed_profile_stage_is_named(self, monkeypatch):
        monkeypatch.setattr(pl.prof, "compute_u0", lambda *a, **k: (
            None, {"lam_k0": 1.0, "d0": 1.0, "d0_spread": 0.0}))

        def broken(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(pl.prof, "compute_PhiHat", broken)
        with pytest.raises(RuntimeError,
                           match="profile stage 'PhiHat' failed: synthetic"):
            pl._compute_profiles(pl.RunConfig(**COARSE))

    @pytest.mark.parametrize("name, solve", [("u0", "compute_u0"),
                                             ("Ubar", "assemble_Ubar"),
                                             ("Phi", "solve"),
                                             ("Ubar", "inertia")])
    def test_failed_helper_stage_keeps_its_name(self, name, solve,
                                                monkeypatch):
        # u0 and Ubar's assembly fail on the main thread; Phi's solve, and
        # Ubar's inertia guard at 5 lam_k0 (above lambda_1(D-) = 2 lam_k0),
        # on the stage's worker thread.  The error names the failed stage,
        # every factor made is freed on its own thread, a failed solve's
        # too, and the worker is joined before the stage fails
        lam_k0 = 5 * 1.6443731 if solve == "inertia" else 1.0
        monkeypatch.setattr(pl.prof, "compute_u0", lambda *a, **k: (
            None, {"lam_k0": lam_k0, "d0": 1.0, "d0_spread": 0.0}))
        monkeypatch.setattr(pl.prof, "compute_Ubar", unreachable)

        def broken(*args, **kwargs):
            raise ValueError("synthetic failure")

        class FailingLU(_CountingLU):
            def solve(self, b):
                broken()

        lives, factor = [], fem.factor
        made = FailingLU if solve == "solve" else _CountingLU

        def tracked(A):
            lives.append([])
            return made(factor(A), lives[-1])

        monkeypatch.setattr(fem, "factor", tracked)
        if solve in ("compute_u0", "assemble_Ubar"):
            monkeypatch.setattr(pl.prof, solve, broken)
        message = "shift .* is not below" if solve == "inertia" \
            else "synthetic"
        before = threading.active_count()
        with pytest.raises(RuntimeError,
                           match=f"^profile stage '{name}' failed: {message}"):
            pl._compute_profiles(pl.RunConfig(**COARSE))
        assert threading.active_count() == before
        for events in lives:
            assert events[-1][0] == "freed", events
            assert events[0][1] is events[-1][1]
        if solve in ("solve", "inertia"):
            assert lives

    def test_failed_u0_cancels_the_queued_solves(self, monkeypatch):
        # u0 fails on the main thread while the worker is inside Phi's
        # factorization and PhiHat's job waits in the queue.  The worker is
        # held there until the stage shuts it down, after the failure: the
        # queued job is cancelled, so no factorization starts after the
        # failure, and Phi's factor is still freed on the worker
        order, lives, factor = [], [], fem.factor
        entered, released = threading.Event(), threading.Event()

        def gated(A):
            order.append("factor")
            entered.set()
            released.wait(60)
            lives.append([])
            return _CountingLU(factor(A), lives[-1])

        def broken_u0(*args):
            assert entered.wait(60)
            order.append("u0 failed")
            raise ValueError("synthetic failure")

        class Releasing(pl.ThreadPoolExecutor):
            def shutdown(self, *args, **kwargs):
                released.set()
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(fem, "factor", gated)
        monkeypatch.setattr(pl.prof, "compute_u0", broken_u0)
        monkeypatch.setattr(pl, "ThreadPoolExecutor", Releasing)
        before = threading.active_count()
        with pytest.raises(RuntimeError,
                           match="^profile stage 'u0' failed: synthetic"):
            pl._compute_profiles(pl.RunConfig(**COARSE))
        assert threading.active_count() == before
        assert order == ["factor", "u0 failed"]
        [events] = lives
        assert [kind for kind, _ in events] == ["made", "solve", "freed"]
        assert len({thread for _, thread in events}) == 1
        assert events[0][1] is not threading.main_thread()

    def test_each_constant_comes_from_one_solve(self, monkeypatch):
        # the stage merges the solves' dicts, so a key that two solves
        # returned would keep only the last value
        keys = []

        def recording(solve):
            def run(*args):
                profile, found = solve(*args)
                keys.append(set(found))
                return profile, found
            return run

        for name in ("compute_u0", "compute_Phi", "compute_PhiHat",
                     "compute_Ubar"):
            monkeypatch.setattr(pl.prof, name,
                                recording(getattr(pl.prof, name)))
        pset = pl._compute_profiles(pl.RunConfig(**COARSE))
        merged = set().union(*keys)
        assert len(keys) == 4 and sum(map(len, keys)) == len(merged)
        assert merged | {"level"} == {
            f.name for f in dataclasses.fields(pl.ProfileConstants)}
        # each profile's residual rides on its field, u0's included
        assert 0 < pset.u0.field.residual < 1e-9
        assert all(p.field.residual < 1e-9
                   for p in (pset.phi, pset.phihat, pset.ubar))

    def test_profile_constants_rejected_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(pl, "run_profiles", unreachable)
        monkeypatch.setattr(pl, "_entry_system", unreachable)
        constants = synthetic_record([]).constants
        with pytest.raises(TypeError, match="ProfileConstants"):
            pl.run_sweep(pl.RunConfig(**COARSE), constants)

    def test_failed_entry_keeps_sweep_alive(self, monkeypatch, tmp_path):
        # the sweep builds each entry's system on the main thread; a build
        # that raises fails its own entry and no other
        cfg = pl.RunConfig(out_dir=str(tmp_path), **COARSE)
        pset = pl.run_profiles(cfg, return_fields=True)
        orig = pl._entry_system

        def flaky(cfg_, eps):
            if eps == 0.3:
                raise RuntimeError("synthetic failure")
            return orig(cfg_, eps)

        monkeypatch.setattr(pl, "_entry_system", flaky)
        rec = pl.run_sweep(cfg, pset)
        assert "error" in rec.sweep[0]
        assert "synthetic failure" in rec.sweep[0]["error"]
        assert "error" not in rec.sweep[1]

    def test_two_jobs_give_the_one_job_record(self, coarse_record,
                                              coarse_pset):
        # the two-thread sweep against the sequential oracle on one thread
        cfg, rec, _ = coarse_record
        one = pl.RunRecord(cfg.hash(), cfg.canonical(),
                           coarse_pset.constants,
                           sequential_sweep(cfg, coarse_pset))
        one.verdicts = pl.verify(one)
        assert json.dumps(one.to_dict()) == json.dumps(rec.to_dict())

    def test_failed_reference_fails_its_entry_and_ends_its_helper(
            self, coarse_pset, monkeypatch):
        # the restricted reference runs on the main thread while the
        # worker factors the entry's full operator; its exception is handed
        # to the worker, which frees its factor and fails the entry with
        # it, and the worker is joined before the sweep ends
        def broken(system, lam_k0):
            raise RuntimeError("synthetic reference failure")

        monkeypatch.setattr(pl, "_restricted_reference", broken)
        bounded_handoff(monkeypatch)
        before = threading.active_count()
        rec = pl.run_sweep(pl.RunConfig(**COARSE), coarse_pset)
        assert threading.active_count() == before
        assert [e["error"] for e in rec.sweep] == [
            "RuntimeError: synthetic reference failure"] * 2
        assert not rec.verdicts["sweep_errors"]["pass"]
        assert not rec.verdicts["overall_pass"]


@pytest.fixture(scope="module")
def coarse3_record(tmp_path_factory, coarse_pset):
    out = str(tmp_path_factory.mktemp("sweep3"))
    cfg = pl.RunConfig(out_dir=out, **COARSE3)
    record = pl.run_sweep(cfg, coarse_pset)
    pl.emit(record, out)
    return cfg, record, out


class TestPipelinedSweep:
    """The sweep factors each entry's full operator and runs its
    full pair on one worker thread; the main thread builds each entry,
    solves its restricted reference and runs the previous entry's
    readouts meanwhile."""

    def test_two_jobs_give_the_one_job_record_byte_for_byte(
            self, coarse3_record, coarse_pset, tmp_path):
        # the two jobs are the sweep's two threads; the one-job record is
        # the sequential oracle's, the same four functions composed in
        # turn on one thread
        cfg, rec, out = coarse3_record
        assert [e.get("error") for e in rec.sweep] == [None] * 3
        oracle = pl.RunRecord(cfg.hash(), cfg.canonical(),
                              coarse_pset.constants,
                              sequential_sweep(cfg, coarse_pset))
        oracle.verdicts = pl.verify(oracle)
        pl.emit(oracle, str(tmp_path))
        assert ((tmp_path / "record.json").read_bytes()
                == (Path(out) / "record.json").read_bytes())

    def test_readout_failure_on_the_helper_is_its_own_entrys_error(
            self, coarse3_record, coarse_pset, monkeypatch):
        cfg, rec, _ = coarse3_record
        readouts, threads = pl._entry_readouts, {}

        def flaky(cfg_, pset_, eps, *eigen):
            threads[eps] = threading.current_thread()
            if eps == 0.3:
                raise RuntimeError("synthetic readout failure")
            return readouts(cfg_, pset_, eps, *eigen)

        monkeypatch.setattr(pl, "_entry_readouts", flaky)
        bounded_handoff(monkeypatch)
        before = threading.active_count()
        got = pl.run_sweep(cfg, coarse_pset)
        assert threading.active_count() == before
        # every readout runs on the main thread: the first two beside the
        # next entry's factorization on the worker, the last after it
        assert [threads[e] is threading.main_thread()
                for e in cfg.eps_sweep] == [True, True, True]
        assert got.sweep == [{"eps": 0.3, "error": "RuntimeError: synthetic "
                              "readout failure", "ratios": {}}] + rec.sweep[1:]

    @pytest.mark.parametrize("phase", ["mesh", "reference",
                                       "reference polish", "polish"])
    def test_eigen_failure_keeps_the_previous_readouts(
            self, phase, coarse3_record, coarse_pset, monkeypatch):
        # the middle entry fails before its worker job is submitted (its
        # mesh), on the main thread beside its worker job (its restricted
        # reference, before or after the reference's factor is made) or
        # in that job (its full pair's iteration); the first entry's
        # readouts run either way, only the middle entry carries the
        # error, and every factor is still freed on the thread that made
        # it, the failed one's included
        cfg, rec, _ = coarse3_record
        # the reference's own iteration runs on the main thread, so only
        # the worker's calls count for the full pair's
        target, name, on_main = {
            "mesh": (pl, "build_dumbbell_mesh", True),
            "reference": (pl, "_restricted_reference", True),
            "reference polish": (fem, "refine_eigenpair", True),
            "polish": (fem, "_inverse_iteration", False)}[phase]
        original, calls = getattr(target, name), []

        def flaky(*args):
            if (threading.current_thread() is threading.main_thread()) \
                    == on_main:
                calls.append(1)
                if len(calls) == 2:
                    raise RuntimeError(f"synthetic {phase} failure")
            return original(*args)

        lives, factor = [], fem.factor

        def counted(A):
            events = []
            lives.append(events)
            return _CountingLU(factor(A), events)

        readouts, threads = pl._entry_readouts, []
        monkeypatch.setattr(pl, "_entry_readouts", lambda *args: (
            threads.append(threading.current_thread()) or readouts(*args)))
        monkeypatch.setattr(target, name, flaky)
        monkeypatch.setattr(fem, "factor", counted)
        bounded_handoff(monkeypatch)
        before = threading.active_count()
        got = pl.run_sweep(cfg, coarse_pset)
        assert threading.active_count() == before
        assert len(threads) == 2
        assert all(t is threading.main_thread() for t in threads)
        assert got.sweep == [rec.sweep[0], {
            "eps": 0.25, "error": f"RuntimeError: synthetic {phase} failure",
            "ratios": {}}, rec.sweep[2]]
        for events in lives:
            kinds = [kind for kind, _ in events]
            assert kinds[0] == "made" and kinds[-1] == "freed", kinds
            assert len({thread for _, thread in events}) == 1

    def test_interrupt_resolves_the_handoff(self, coarse_pset, monkeypatch):
        # an interrupt in the first reference leaves the worker's job
        # waiting for it; the sweep cancels the hand-off, so the worker
        # frees its factor and shuts down
        def interrupted(system, lam_k0):
            raise KeyboardInterrupt

        seen = []
        monkeypatch.setattr(pl, "_restricted_reference", interrupted)
        bounded_handoff(monkeypatch, seen)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            pl.run_sweep(pl.RunConfig(**COARSE3), coarse_pset)
        assert threading.active_count() == before
        assert seen == [CancelledError]

    def test_each_factor_lives_on_one_thread(self, coarse_pset, monkeypatch):
        # a SuperLU factor freed on another thread than its own keeps its
        # memory: every full factor is made, solved on (4 steps) and freed
        # by the one worker thread, every reference factor (3 steps) by the
        # main thread.  Entry i's reference starts once entry i-1's full
        # factor is freed, so at most one full factor is alive with it;
        # the worker's iterations are slowed down so that entry i's build
        # ends first
        lives, factor, order = [], fem.factor, []

        def counted(A):
            events = []
            lives.append(events)
            lu = _CountingLU(factor(A), events)
            if threading.current_thread() is not threading.main_thread():
                k = [kind for kind, _ in order].count("made")
                order.append(("made", k))
                weakref.finalize(lu, order.append, ("freed", k))
            return lu

        reference, iterate = pl._restricted_reference, fem._inverse_iteration

        def slow(*args):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.2)
            return iterate(*args)

        def logged(*args):
            order.append(("reference",
                          [kind for kind, _ in order].count("reference")))
            return reference(*args)

        monkeypatch.setattr(fem, "factor", counted)
        monkeypatch.setattr(pl, "_restricted_reference", logged)
        monkeypatch.setattr(fem, "_inverse_iteration", slow)
        rec = pl.run_sweep(pl.RunConfig(**COARSE3), coarse_pset)
        assert [e.get("error") for e in rec.sweep] == [None] * 3
        owners = []
        for events in lives:
            kinds = [kind for kind, _ in events]
            assert kinds[0] == "made" and kinds[-1] == "freed", kinds
            assert len({thread for _, thread in events}) == 1
            owners.append((events[0][1] is threading.main_thread(),
                           kinds.count("solve")))
        assert sorted(owners) == [(False, 4)] * 3 + [(True, 3)] * 3
        assert len({events[0][1] for events in lives}) == 2
        alive = set()
        for kind, k in order:
            if kind == "made":
                alive.add(k)
            elif kind == "freed":
                alive.remove(k)
            else:
                assert alive <= {k}, (kind, k, alive)
        assert alive == set()


class TestReadoutPlan:
    """Each entry's readouts are a mesh-only plan, every point located in
    one call, and a value phase on the eigenvector."""

    @pytest.mark.parametrize("config, eps", [
        ("default", 0.3), ("default", 0.1), ("coarse", 0.09)])
    def test_plan_reads_like_evaluate(self, config, eps):
        # every read of the plan, gathered from its one location call,
        # equals FieldSolution.evaluate on the same points bit for bit
        cfg = pl.RunConfig(**(COARSE if config == "coarse" else {}))
        disc = pl._entry_system(cfg, eps).disc
        plan = pl._ReadoutPlan(cfg, disc, eps)
        assert plan.direct == (eps >= 0.1)
        kinds = {key[0] for key in plan.reads}
        assert kinds == ({"section", "sphere", "window"} if plan.direct
                         else {"section"})
        values = np.random.default_rng(2).standard_normal(disc.n_nodes)
        read, field = plan.reader(values), fem.FieldSolution(disc, values)
        for key, (x1, rho) in plan.reads.items():
            got, want = read(*key), field.evaluate(x1, rho)
            assert got.shape == want.shape, key
            assert got.tobytes() == want.tobytes(), key

    def test_readouts_locate_once_on_the_entry_mesh(self, coarse_pset,
                                                    monkeypatch):
        # the plan locates every point of the entry in one call; the
        # windows' references read Phi, PhiHat and Ubar once each
        cfg = pl.RunConfig(**COARSE)
        pair, lam_ref = sequential_eigenpair(cfg, 0.3,
                                             coarse_pset.constants.lam_k0)
        locate, calls = fem.Discretization.locate, []

        def counted(disc, x1, rho):
            calls.append(disc)
            return locate(disc, x1, rho)

        monkeypatch.setattr(fem.Discretization, "locate", counted)
        pl._entry_readouts(cfg, coarse_pset, 0.3, pair, lam_ref)
        discs = [pair.field.disc] + [p.field.disc for p in (
            coarse_pset.phi, coarse_pset.phihat, coarse_pset.ubar)]
        assert [sum(d is disc for d in calls) for disc in discs] == [1] * 4
        assert len(calls) == 4

    def test_sweep_locates_once_per_entry_and_profile(self, coarse_pset,
                                                      monkeypatch):
        # the references are read once per sweep, not once per entry
        locate, calls = fem.Discretization.locate, []

        def counted(disc, x1, rho):
            calls.append(disc)
            return locate(disc, x1, rho)

        monkeypatch.setattr(fem.Discretization, "locate", counted)
        rec = pl.run_sweep(pl.RunConfig(**COARSE3), coarse_pset)
        assert [e.get("error") for e in rec.sweep] == [None] * 3
        assert len(calls) == 3 + 3
        assert len({id(disc) for disc in calls}) == 6

    def test_last_plan_is_built_before_its_pair_returns(self, coarse_pset,
                                                        monkeypatch):
        # the last entry's plan reads its mesh alone, so it is built while
        # the worker still runs the last pair; the worker's iterations are
        # slowed down so that the pair ends last
        cfg = pl.RunConfig(**COARSE)
        order, plan = [], pl._ReadoutPlan
        full_pair, iterate = pl._full_pair, fem._inverse_iteration

        def slow(*args):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.05)
            return iterate(*args)

        def planned(cfg_, disc, eps):
            order.append(("plan", eps))
            return plan(cfg_, disc, eps)

        def paired(*args):
            out = full_pair(*args)
            order.append(("pair", len([k for k, _ in order if k == "pair"])))
            return out

        monkeypatch.setattr(fem, "_inverse_iteration", slow)
        monkeypatch.setattr(pl, "_ReadoutPlan", planned)
        monkeypatch.setattr(pl, "_full_pair", paired)
        rec = pl.run_sweep(cfg, coarse_pset)
        assert [e.get("error") for e in rec.sweep] == [None] * 2
        assert order == [("pair", 0), ("plan", 0.3), ("plan", 0.2),
                         ("pair", 1)]


class TestCLI:
    def test_cross_section(self, capsys):
        assert cli.main(["cross-section"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["sqrt_lambda1"] == pytest.approx(2.404825557695773)
        assert out["upsilon3"] == pytest.approx(math.sqrt(2 * math.pi / 3))

    def test_verify_pass_and_fail_codes(self, tmp_path, capsys):
        good = synthetic_record([(0.3, 1.15), (0.2, 1.1), (0.1, 1.05)])
        good.verdicts = pl.verify(good)
        pl.emit(good, str(tmp_path / "good"), formats=("json",))
        assert cli.main(["verify",
                         str(tmp_path / "good" / "record.json")]) == 0
        bad = synthetic_record([(0.3, 1.3), (0.2, 1.3), (0.1, 1.3)])
        bad.verdicts = pl.verify(bad)
        pl.emit(bad, str(tmp_path / "bad"), formats=("json",))
        assert cli.main(["verify",
                         str(tmp_path / "bad" / "record.json")]) == 2
        capsys.readouterr()

    def test_missing_record_is_execution_error(self, capsys):
        assert cli.main(["verify", "/nonexistent/record.json"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("blob, named", [
        ({"config_hash": "x"}, "config"),
        ([], "object"),
        ({"config_hash": "x", "config": {}, "constants": {}, "verdicts": {},
          "sweep": 5}, "sweep"),
        ({"config_hash": "x", "config": {}, "constants": {}, "verdicts": {},
          "sweep": [{"eps": 0.3, "ratios": {}}, {"eps": 0.2}]}, "ratios"),
        ({"config_hash": "x", "config": {}, "constants": {}, "verdicts": {},
          "sweep": [{"ratios": {}}]}, "eps"),
        ({"config_hash": "x", "config": {}, "constants": {"d0": 1.0},
          "verdicts": {}, "sweep": []}, "constants"),
        # read in sweep order, this series would end at eps = 0.3
        (synthetic_record([(e, 1.0 + 0.5 * e) for e in (0.1, 0.2, 0.3)])
         .to_dict(), "strictly decreasing"),
        # two points at one eps give no slope
        (synthetic_record([(0.2, 1.001)] * 2).to_dict(),
         "strictly decreasing"),
    ])
    def test_malformed_record_is_execution_error(self, blob, named,
                                                 tmp_path, capsys):
        path = tmp_path / "record.json"
        path.write_text(json.dumps(blob))
        assert cli.main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, bad", [
        pytest.param("record", lambda e: e.pop("b_cascade"),
                     id="record-no-b_cascade"),
        pytest.param("record", lambda e: e.update(b_defect={"sign": 1}),
                     id="record-bad-b_defect"),
        pytest.param("record", lambda e: e["ratios"].update(R3="1.1"),
                     id="record-string-ratio"),
        pytest.param("record", lambda e: e["ratios"].update(R3=None),
                     id="record-null-ratio"),
        pytest.param("record", lambda e: e.update(eps="0.2"),
                     id="record-string-eps"),
        pytest.param("record", lambda e: e.update(ratios=[1.1]),
                     id="record-list-ratios"),
        pytest.param("config", [1, 2], id="config-list"),
        pytest.param("config", {"eps_sweep": 0.3}, id="config-scalar-eps"),
        pytest.param("config", {"a_minus": "x"}, id="config-string-weight"),
        pytest.param("config", {"h0": "0.15"}, id="config-string-h0"),
    ])
    def test_malformed_file_is_execution_error(self, kind, bad, tmp_path,
                                               monkeypatch, capsys):
        # a record edited in one entry, or a config file, that fails with
        # `error:` and exit 1 instead of a traceback
        monkeypatch.setattr(pl, "run_profiles", unreachable)
        path = tmp_path / "in.json"
        if kind == "record":
            rec = synthetic_record([(0.3, 1.15), (0.2, 1.1)])
            one = ScaledAmplitude.from_float(1.0).to_dict()
            for entry in rec.sweep:
                entry.update(b_defect=one, b_cascade=one)
            rec.verdicts = pl.verify(rec)
            blob = rec.to_dict()
            path.write_text(json.dumps(blob))
            assert cli.main(["verify", str(path)]) == 0
            bad(blob["sweep"][-1])
            path.write_text(json.dumps(blob))
            argv = ["verify", str(path)]
        else:
            path.write_text(json.dumps(bad))
            argv = ["profiles", "--config", str(path)]
        capsys.readouterr()
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_weight_inside_the_gap_margin_fails_before_any_factorization(
            self, monkeypatch, tmp_path, capsys):
        # lam_k0 = 0.9/0.8 of 0.8 lambda_1(D-): the operator K - lam_k0 M_p
        # on D- is still SPD, so no pivot would catch it
        monkeypatch.setattr(fem.spla, "splu", unreachable)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a_minus": 0.9}))
        assert cli.main(["profiles", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "a_minus" in err
        with pytest.raises(ValueError, match="lambda_1"):
            pl.run_profiles(pl.RunConfig(a_minus=0.9))
        # the margin itself is allowed
        pl.RunConfig(a_minus=0.8).validate()

    def test_overflow_is_execution_error(self, tmp_path, capsys):
        rec = synthetic_record([(0.3, 1.15), (0.2, 1.1)])
        rec.sweep[-1]["b_defect"] = ScaledAmplitude.from_float(
            1.0).scale_exp(2000.0).to_dict()
        rec.sweep[-1]["b_cascade"] = ScaledAmplitude.from_float(1.0).to_dict()
        pl.emit(rec, str(tmp_path), formats=("json",))
        assert cli.main(["verify", str(tmp_path / "record.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_is_execution_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps_sweep": [0.1, 0.2]}))
        assert cli.main(["profiles", "--config", str(cfg)]) == 1
        capsys.readouterr()

    def test_unknown_config_key_is_execution_error(self, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.setattr(pl, "run_profiles", unreachable)
        # a misspelt key, a module constant that is no config field, and
        # the element order, a class constant
        for key in ("eps_swep", "spherical_radii", "order"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: [0.3, 0.2]}))
            assert cli.main(["profiles", "--config", str(cfg)]) == 1
            err = capsys.readouterr().err
            assert "error:" in err and key in err

    @pytest.mark.parametrize("jobs", [0, -1, 2])
    def test_bad_jobs_fails_before_profile_stage(self, jobs, monkeypatch,
                                                 tmp_path, capsys):
        # the field is pinned at 1: the sweep has one path
        monkeypatch.setattr(pl, "run_profiles", unreachable)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": jobs}))
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "jobs" in err

    def test_profiles_takes_no_jobs_flag(self, monkeypatch, capsys):
        monkeypatch.setattr(pl, "run_profiles", unreachable)
        assert cli.main(["profiles", "--jobs", "2"]) == 1
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_profiles_takes_no_out_or_eps_flag(self, monkeypatch, capsys):
        # the profile stage writes no file, and its meshes have no eps
        monkeypatch.setattr(pl, "run_profiles", unreachable)
        assert cli.main(["profiles", "--out", "x"]) == 1
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert cli.main(["profiles", "--eps", "0.3", "0.1"]) == 1
        assert "unrecognized arguments: --eps" in capsys.readouterr().err

    def test_cache_in_config_fails_before_profile_stage(
            self, monkeypatch, tmp_path, capsys):
        # the field is pinned at false: there is no profile cache
        monkeypatch.setattr(pl, "run_profiles", unreachable)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cache": True}))
        for command in ("profiles", "sweep"):
            assert cli.main([command, "--config", str(cfg)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "cache" in err

    def test_usage_error_exits_1_and_help_exits_0(self, monkeypatch,
                                                   capsys):
        # argparse exits 2 on a usage error, the code of a failed verdict;
        # an old `sweep --jobs 2` must not read as one
        monkeypatch.setattr(pl, "run_profiles", unreachable)
        assert cli.main(["sweep", "--jobs", "2"]) == 1
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err
        assert cli.main(["--help"]) == 0
        assert "usage: dumbbell" in capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [("grade_levels", 8.5),
                                            ("sweep_level", 0.5)])
    def test_fractional_count_fails_before_profile_stage(
            self, key, value, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(pl, "run_profiles", unreachable)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    def test_bad_eps_fails_before_profile_stage(self, monkeypatch,
                                                tmp_path, capsys):
        monkeypatch.setattr(pl, "run_profiles", unreachable)
        assert cli.main(["sweep", "--eps", "0.6", "0.3",
                         "--out", str(tmp_path)]) == 1
        assert "eps" in capsys.readouterr().err

    def test_one_direct_eps_fails_before_profile_stage(self, monkeypatch,
                                                       tmp_path, capsys):
        # R4-R6 are read only at eps >= 0.1, so with one such eps their
        # trend would be judged "single"; the sweep is refused unsolved
        monkeypatch.setattr(pl, "run_profiles", unreachable)
        assert cli.main(["sweep", "--eps", "0.1", "0.05", "0.02", "0.01",
                         "0.004", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "R4-R6" in err

    def test_report_from_record(self, tmp_path, capsys):
        rec = synthetic_record([(0.3, 1.1), (0.2, 1.05)])
        rec.verdicts = pl.verify(rec)
        pl.emit(rec, str(tmp_path), formats=("json",))
        code = cli.main(["report", str(tmp_path / "record.json"),
                         "--out", str(tmp_path / "rep")])
        assert code == 0
        assert (tmp_path / "rep" / "R3.csv").exists()
        assert (tmp_path / "rep" / "R3.svg").exists()
        capsys.readouterr()

    def test_report_judges_the_record_afresh(self, tmp_path, capsys):
        # a record whose stored verdicts are missing: verify recomputes
        # them, and report draws the same ones
        rec = synthetic_record([(0.3, 1.1), (0.2, 1.05)])
        pl.emit(rec, str(tmp_path), formats=("json",))
        path = str(tmp_path / "record.json")
        assert json.loads(Path(path).read_text())["verdicts"] == {}
        assert cli.main(["verify", path]) == 0
        capsys.readouterr()
        out = tmp_path / "rep"
        assert cli.main(["report", path, "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "R3.csv").exists() and (out / "R3.svg").exists()
        written = json.loads((out / "record.json").read_text())
        assert written["verdicts"] == json.loads(json.dumps(pl.verify(rec)))

    def test_unknown_report_format_is_execution_error(self, tmp_path,
                                                      capsys):
        rec = synthetic_record([(0.3, 1.1), (0.2, 1.05)])
        rec.verdicts = pl.verify(rec)
        pl.emit(rec, str(tmp_path), formats=("json",))
        out = tmp_path / "rep"
        code = cli.main(["report", str(tmp_path / "record.json"),
                         "--out", str(out), "--formats", "csv,svgg"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "svgg" in err
        assert not out.exists()
