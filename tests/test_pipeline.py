import dataclasses
import json
import math
import os

import numpy as np
import pytest

from dumbbell import channel as ch
from dumbbell import cli
from dumbbell import cross_section as cs
from dumbbell import fem
from dumbbell import pipeline as pl
from dumbbell.scaled import ScaledAmplitude

COARSE = dict(eps_sweep=(0.3, 0.2), h0=0.2, grade_levels=6,
              profile_level=0, sweep_level=0, fit_points=9)


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
        pl.RunConfig(eps_sweep=(0.1, 0.01)).validate()

    def test_single_eps_rejected(self):
        with pytest.raises(ValueError):
            pl.RunConfig(eps_sweep=(0.2,)).validate()

    @pytest.mark.parametrize("bad", [
        {"eps_sweep": (0.6, 0.3)},
        {"eps_sweep": (0.3, -0.1)},
        {"x0_list": (0.3, 1.0)},
        {"x0_list": (0.0,)},
        {"fit_window": (0.85, 0.55)},
        {"fit_window": (0.0, 0.4)},
        {"fit_window": (0.1, 1.2)},
        {"fit_window": (0.4, 0.4)},
        {"fit_points": 3},
        {"ktilde_list": (0.5, 0.0)},
        {"ktilde_list": (-1.0,)},
        {"a_minus": -0.5},
        {"sweep_level": -1},
        {"profile_level": -1},
        {"jobs": 0},
        {"jobs": -1},
    ])
    def test_rejects_out_of_range_fields(self, bad):
        with pytest.raises(ValueError):
            pl.RunConfig(**bad).validate()

    def test_hash_ignores_io_fields(self):
        a = pl.RunConfig(out_dir="x", jobs=1, cache=True)
        b = pl.RunConfig(out_dir="y", jobs=4, cache=False)
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


class TestProfileCache:
    def test_cache_hit_is_bit_identical(self, tmp_path):
        cfg = pl.RunConfig(out_dir=str(tmp_path), **COARSE)
        first = pl.run_profiles(cfg)
        cache = tmp_path / "cache" / f"profiles-{cfg.hash()}.json"
        assert cache.exists()
        stamp = cache.stat().st_mtime_ns
        second = pl.run_profiles(cfg)
        assert cache.stat().st_mtime_ns == stamp  # not recomputed
        assert first.to_dict() == second.to_dict()

    def test_cache_from_other_source_is_recomputed(self, tmp_path):
        cfg = pl.RunConfig(out_dir=str(tmp_path), **COARSE)
        first = pl.run_profiles(cfg)
        cache = tmp_path / "cache" / f"profiles-{cfg.hash()}.json"
        blob = json.loads(cache.read_text())
        source = blob["source"]
        blob["source"] = "0" * 64
        blob["constants"]["c_phi"] = -1.0
        cache.write_text(json.dumps(blob))
        again = pl.run_profiles(cfg)
        assert again.c_phi == pytest.approx(first.c_phi, rel=1e-9)
        assert json.loads(cache.read_text())["source"] == source
        # the old format held the bare constants; it is a miss too
        cache.write_text(json.dumps(dict(first.to_dict(), c_phi=-1.0)))
        assert pl.run_profiles(cfg).c_phi == pytest.approx(first.c_phi,
                                                           rel=1e-9)
        assert json.loads(cache.read_text())["source"] == source

    def test_cache_disabled(self, tmp_path):
        cfg = pl.RunConfig(out_dir=str(tmp_path), cache=False, **COARSE)
        pl.run_profiles(cfg)
        assert not (tmp_path / "cache").exists()


def test_profile_stage_factors_each_operator_once(tmp_path, monkeypatch):
    # K on D+ (the u0 iteration), the two harmonic solves, and
    # K - lam_k0 M_p on D- (the Ubar guard and solve); no ARPACK run
    factored, arpack = [], []
    splu, eigsh = fem.spla.splu, fem.spla.eigsh
    monkeypatch.setattr(fem.spla, "splu", lambda A, **kw:
                        factored.append(A.shape) or splu(A, **kw))
    monkeypatch.setattr(fem.spla, "eigsh", lambda *a, **kw:
                        arpack.append(a) or eigsh(*a, **kw))
    pl.run_profiles(pl.RunConfig(out_dir=str(tmp_path), cache=False,
                                 **COARSE))
    assert len(factored) == 4
    assert arpack == []


@pytest.fixture(scope="module")
def coarse_pset():
    cfg = pl.RunConfig(cache=False, **COARSE)
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
        cfg = pl.RunConfig(cache=False, **COARSE)
        lam_k0 = coarse_pset.constants.lam_k0
        first, first_ref = pl._dumbbell_eigenpair(cfg, 0.2, lam_k0)
        second, second_ref = pl._dumbbell_eigenpair(cfg, 0.2, lam_k0)
        assert first.lam == second.lam
        assert first_ref == second_ref
        assert np.array_equal(first.field.values, second.field.values)

    def test_entry_factors_twice_and_assembles_stiffness_once(
            self, coarse_pset, monkeypatch):
        # the hot path: one shifted factor for the dumbbell eigenpair, one
        # for the restricted reference, and one stiffness matrix for both;
        # 6 steps on the first and 4 on the second, one solve a plain step
        # and two for each of the last two, extended-precision steps
        factored, assembled, solves = [], [], []
        factor, assemble = fem.factor, fem.assemble_stiffness

        class CountingLU:
            def __init__(self, lu):
                self._lu = lu

            def solve(self, *args, **kwargs):
                solves.append(1)
                return self._lu.solve(*args, **kwargs)

        monkeypatch.setattr(fem, "factor",
                            lambda A: factored.append(A.shape)
                            or CountingLU(factor(A)))
        monkeypatch.setattr(fem, "assemble_stiffness",
                            lambda disc: assembled.append(disc)
                            or assemble(disc))
        pl._sweep_entry(pl.RunConfig(cache=False, **COARSE), 0.3,
                        coarse_pset)
        assert len(factored) == 2
        assert len(assembled) == 1
        assert len(solves) == (4 + 2 * 2) + (2 + 2 * 2)

    def test_eigenvalue_above_restricted_reference_fails_entry(
            self, coarse_pset, monkeypatch):
        # min-max on the nested spaces gives lam_eps <= lam_ref
        restricted = pl._restricted_reference

        def lowered(*args):
            ref = restricted(*args)
            return dataclasses.replace(ref, lam=0.9 * ref.lam)

        monkeypatch.setattr(pl, "_restricted_reference", lowered)
        with pytest.raises(ValueError, match="exceeds the restricted"):
            pl._sweep_entry(pl.RunConfig(cache=False, **COARSE), 0.3,
                            coarse_pset)

    def test_warm_start_reaches_the_left_body(self, coarse_pset,
                                              monkeypatch):
        # eps = 0.1 is the deepest direct-track eps: there the left body
        # sits furthest below the peak.  The 6-step iterate must agree with
        # a 12-step one from the same start where R4-R6 read it.  The left
        # error falls by 0.01 a step and measures 3e-14 at 6 steps on this
        # mesh, 3e-12 at 5 and 3e-10 at 4, so 1e-11 of the left peak
        # catches a cut to 4 steps
        calls = []
        refine = fem.refine_eigenpair
        monkeypatch.setattr(fem, "refine_eigenpair",
                            lambda system, start, steps:
                            calls.append((system, start))
                            or refine(system, start, steps))
        cfg = pl.RunConfig(cache=False, **COARSE)
        pair, _ = pl._dumbbell_eigenpair(cfg, 0.1,
                                         coarse_pset.constants.lam_k0)
        system, start = calls[-1]
        deep = fem.mass_normalize(system, refine(system, start, 12))
        left = pair.field.disc.nodes[:, 0] < -0.5
        u, v = pair.field.values[left], deep.field.values[left]
        assert np.max(np.abs(u - v)) <= 1e-11 * np.max(np.abs(v))
        assert pair.lam == pytest.approx(deep.lam, rel=1e-14, abs=0)

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
        cfg = pl.RunConfig(cache=False, **COARSE)
        with pytest.raises(ValueError, match=r"normalized_vs_Ubar\[kt=0.5\]"):
            pl._sweep_entry(cfg, 0.3, pset)

    def test_cascade_track_entry(self, coarse_pset):
        # below eps = 0.1 the left-side scales come from the tube fit alone
        cfg = pl.RunConfig(cache=False, **COARSE)
        entry = pl._sweep_entry(cfg, 0.09, coarse_pset)
        assert entry["track"] == "cascade"
        assert list(entry) == ENTRY_KEYS
        assert entry["spherical"] is None
        assert entry["comparisons"] == entry["samples"] == {}
        assert entry["junction_probes"] == {}
        ratios = entry["ratios"]
        assert set(ratios) == {"R1", "R3"} | {f"R2[x0={x0:g}]"
                                              for x0 in cfg.x0_list}
        for name, v in ratios.items():
            assert math.isfinite(v) and abs(v - 1.0) < 0.15, (name, v)
        sl1 = cs.disk_ground_mode(cfg.dimension).sqrt_lambda1
        fit = ch.ModeFit.from_coefficients(
            0.09, sl1, ScaledAmplitude.from_dict(entry["fit"]["A"]),
            ScaledAmplitude.from_dict(entry["fit"]["B"]))
        for x0 in cfg.x0_list:
            amp = ch.propagate(fit, x0)
            assert entry["htilde_x0"][repr(x0)] == (amp * amp).to_dict()

    def test_failed_profile_stage_is_named(self, monkeypatch):
        monkeypatch.setattr(pl.prof, "compute_u0",
                            lambda *a, **k: (None, 1.0, 1.0))
        monkeypatch.setattr(pl.prof, "compute_Phi",
                            lambda *a, **k: (None, 1.0))

        def broken(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(pl.prof, "compute_PhiHat", broken)
        with pytest.raises(RuntimeError,
                           match="profile stage 'PhiHat' failed: synthetic"):
            pl._compute_profiles(pl.RunConfig(**COARSE), 0)

    def test_profile_constants_rejected_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(pl, "run_profiles", unreachable)
        monkeypatch.setattr(pl, "_sweep_entry", unreachable)
        constants = synthetic_record([]).constants
        with pytest.raises(TypeError, match="ProfileConstants"):
            pl.run_sweep(pl.RunConfig(**COARSE), constants)

    def test_failed_entry_keeps_sweep_alive(self, monkeypatch, tmp_path):
        cfg = pl.RunConfig(out_dir=str(tmp_path), **COARSE)
        pset = pl.run_profiles(cfg, return_fields=True)
        calls = {"n": 0}
        orig = pl._sweep_entry

        def flaky(cfg_, eps, pset_):
            calls["n"] += 1
            if eps == 0.3:
                raise RuntimeError("synthetic failure")
            return orig(cfg_, eps, pset_)

        monkeypatch.setattr(pl, "_sweep_entry", flaky)
        rec = pl.run_sweep(cfg, pset)
        assert "error" in rec.sweep[0]
        assert "synthetic failure" in rec.sweep[0]["error"]
        assert "error" not in rec.sweep[1]


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

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_bad_jobs_fails_before_profile_stage(self, jobs, monkeypatch,
                                                 tmp_path, capsys):
        monkeypatch.setattr(pl, "run_profiles", unreachable)
        assert cli.main(["sweep", "--jobs", jobs, "--out", str(tmp_path)]) == 1
        assert "jobs" in capsys.readouterr().err

    def test_bad_eps_fails_before_profile_stage(self, monkeypatch,
                                                tmp_path, capsys):
        monkeypatch.setattr(pl, "run_profiles", unreachable)
        assert cli.main(["sweep", "--eps", "0.6", "0.3",
                         "--out", str(tmp_path)]) == 1
        assert "eps" in capsys.readouterr().err

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
