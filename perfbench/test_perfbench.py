"""Self-tests of the benchmark's own code: the reference gate, the span
arithmetic and probe_check's regime table.  They need neither the dumbbell
package nor a solve:

    python3 -m pytest -q perfbench
"""

import copy
import math

import numpy as np
import pytest

import gate
import probe_check
import spans



def _record():
    def entry(eps, r1):
        return {"eps": eps, "track": "direct", "lam_eps": 0.31,
                "lam_ref": 0.30, "n_eps_half": 2.4,
                "ratios": {"R1": r1, "R2[x0=0.5]": 1.02, "R6": 0.04}}

    verdict = {"pass": True, "verdict": "converging"}
    return {
        "constants": {"lam_k0": 0.3, "d0": 0.7, "m_phihat": 1.9,
                      "norm_gamma": {"0.5": 0.01, "1.0": 0.02}, "level": 1},
        "sweep": [entry(0.3, 1.03), entry(0.1, 1.01)],
        "verdicts": {"R1": dict(verdict), "R2[x0=0.5]": dict(verdict),
                     "R6": dict(verdict), "overall_pass": True},
    }


def _reference(values):
    return {"values": values, "abs_tol": 1e-12,
            "rel_tol": {k: 1e-4 if k.endswith("n_eps_half") else 1e-8
                        for k, v in values.items()
                        if not isinstance(v, bool)}}


@pytest.fixture
def reference():
    return _reference(gate.flatten_record(_record()))


def test_reference_record_passes(reference):
    assert gate.check_record(_record(), reference) == []


def test_errored_entry_fails_even_with_overall_pass(reference):
    rec = _record()
    rec["sweep"][1] = {"eps": 0.1, "error": "RuntimeError: boom",
                       "ratios": {}}
    # the series simply lose eps = 0.1, as verify() does today
    assert rec["verdicts"]["overall_pass"] is True
    failures = gate.check_record(rec, reference)
    assert any("errored" in f for f in failures)


def test_nan_ratio_fails(reference):
    rec = _record()
    rec["sweep"][0]["ratios"]["R2[x0=0.5]"] = math.nan
    failures = gate.check_record(rec, reference)
    assert failures == [f"sweep[eps=0.3].ratios.R2[x0=0.5]: non-finite "
                        f"value nan"]


def test_value_outside_tolerance_fails(reference):
    rec = _record()
    rec["sweep"][1]["lam_eps"] *= 1 + 1e-6
    assert len(gate.check_record(rec, reference)) == 1


def test_each_value_has_its_own_tolerance(reference):
    rec = _record()
    rec["sweep"][1]["n_eps_half"] *= 1 + 1e-6
    assert gate.check_record(rec, reference) == []
    rec["sweep"][1]["n_eps_half"] *= 1 + 1e-3
    assert len(gate.check_record(rec, reference)) == 1


def test_verdict_that_passed_must_still_pass(reference):
    rec = _record()
    rec["verdicts"]["R6"]["pass"] = False
    rec["verdicts"]["overall_pass"] = False
    failures = gate.check_record(rec, reference)
    assert sorted(failures) == sorted([
        "verdict.R6.pass: passed on the reference, now fails",
        "verdict.overall_pass: passed on the reference, now fails"])


def test_missing_value_and_new_diagnostics(reference):
    rec = _record()
    del rec["sweep"][0]["ratios"]["R6"]
    rec["sweep"][1]["ratios"]["R7"] = 1.0      # not in the reference
    assert gate.check_record(rec, reference) == [
        "sweep[eps=0.3].ratios.R6: missing"]


def test_constants_check(reference):
    consts = copy.deepcopy(_record()["constants"])
    ref = _reference(gate.flatten_constants(consts))
    assert "constants.level" in ref["values"]
    assert gate.check_constants(consts, ref) == []
    consts["norm_gamma"]["1.0"] = 0.03
    assert gate.check_constants(consts, ref) == [
        "constants.norm_gamma[1.0]: 0.03 differs from reference 0.02 "
        "by more than rel 1e-08"]


class _Clock:
    """A clock the test moves by hand, so span times are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = _Clock()
    t = spans.Tracer(clock=clock)
    op = t.open("op")
    clock.now += 1.0
    a = t.open("pipeline")
    clock.now += 2.0
    b = t.open("fem.locate")
    clock.now += 3.0
    t.close(b)
    c = t.open("cross_section")
    clock.now += 0.5
    d = t.open("fem.locate")
    clock.now += 4.0
    t.close(d)
    t.close(c)
    clock.now += 1.5
    t.close(a)
    clock.now += 0.25
    t.close(op)
    assert spans.self_times(t.spans) == [1.25, 3.5, 3.0, 0.5, 4.0]
    totals = spans.layer_totals(t.spans, op)
    assert totals["fem.locate_s"] == 7.0
    assert totals["fem.locate_calls"] == 2
    assert totals["cross_section.s"] == 0.5
    assert totals["pipeline.self_s"] == 3.5
    assert totals["trace.unattributed_s"] == 1.25
    assert totals["trace.spans"] == 4
    # every self time together is the root's duration
    assert sum(spans.self_times(t.spans)) == t.spans[op][2] - t.spans[op][1]


def test_wrapped_functions_record_spans_and_counts():
    clock = _Clock()
    t = spans.Tracer(clock=clock)

    def locate(x):
        clock.now += 0.1 * len(x)
        return (np.array([0] * (len(x) - 1) + [-1]),)

    def evaluate(x):
        clock.now += 1.0
        return t.wrap("fem.locate", locate)(x)

    run = t.wrap("fem.evaluate", evaluate)
    root = t.open("op")
    run([1, 2, 3, 4])
    run([1, 2])
    t.close(root)
    totals = spans.layer_totals(t.spans, root)
    assert totals["fem.locate_points"] == 6
    assert totals["fem.locate_hit_frac"] == pytest.approx(4 / 6)
    assert totals["fem.locate_s"] == pytest.approx(0.6)
    assert totals["fem.evaluate_s"] == pytest.approx(2.0)
    assert totals["fem.locate_us_per_point"] == pytest.approx(1e5)


def test_spans_of_a_raising_call_are_closed():
    t = spans.Tracer()

    def boom():
        raise ValueError("x")

    root = t.open("op")
    with pytest.raises(ValueError):
        t.wrap("channel", boom)()
    t.close(root)
    assert all(s[2] is not None for s in t.spans)


def test_every_layer_metric_has_a_unit():
    totals = spans.layer_totals([["op", 0.0, 1.0, -1, {}]], 0)
    assert set(totals) == set(spans.UNITS)


def test_probe_check_sees_a_kernel_that_tracks_the_probe_as_flat():
    # two regimes, the second a third slower; the probes read 10 % fast,
    # right and 10 % slow in turn
    cycles = []
    for i in range(60):
        speed = 0.3 if i < 30 else 0.4
        cycle = {name: 10 * speed for name in probe_check.KERNELS}
        cycle["probe"] = speed * (0.9, 1.0, 1.1)[i % 3]
        cycles.append(cycle)
    probes, rows = probe_check.regime_table(cycles)
    assert probes[0] == pytest.approx(0.3) and probes[2] == pytest.approx(0.4)
    for ratios, slope in rows.values():
        assert ratios == pytest.approx([10, 10, 10], rel=0.02)
        assert slope == pytest.approx(1, rel=0.1)
