"""Tests of the benchmark's own helpers: span self time, wrapping and
restoring, tail-percentile choice, the Wilson band check and the host-speed
correction."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
from ris_ssk import analysis, astbc_link, beamform, harness, pb_link  # noqa: E402
from ris_ssk.harness import SimConfig  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 6]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    assert tracing.self_times(parent, end - start).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_tracer_nests_spans_and_sums_per_name():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: 1)
    root = tracer.wrap("root", lambda: leaf() + leaf())
    assert root() == 2
    a = tracer.arrays()
    assert [tracer.names[i] for i in a["name_id"]] == ["root", "leaf", "leaf"]
    assert a["parent"].tolist() == [-1, 0, 0]
    summary = tracer.summary()
    calls, total, own = summary["root"]
    leaf_total = summary["leaf"][1]
    assert calls == 1 and summary["leaf"][0] == 2
    assert own == pytest.approx(total - leaf_total)


def test_tracer_closes_span_when_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise KeyError

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    tracer.wrap("after", lambda: None)()
    a = tracer.arrays()
    assert a["parent"].tolist() == [-1, -1]
    assert (a["end"] >= a["start"]).all()


def test_patched_restores_every_attribute_even_on_error():
    originals = {
        (m, a): getattr(m, a)
        for m, a in [(harness, "run_ber_sweep"), (harness, "StreamBank"), (harness, "sample_channel"),
                     (pb_link, "sample_awgn"), (astbc_link, "sample_awgn"), (beamform, "sdr_beamform"),
                     (analysis, "analytic_abep")]
    }
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.layer_wrappers(tracer)):
            assert harness.run_ber_sweep is not originals[(harness, "run_ber_sweep")]
            raise RuntimeError
    for (module, attr), value in originals.items():
        assert getattr(module, attr) is value


def test_traced_sweep_matches_untraced_and_records_layers():
    cfg = SimConfig(scheme="pb", n=8, nt=2, snr_db_grid=(-10.0,), trials=50, seed=3)
    plain = harness.run_ber_sweep(cfg)
    tracer = tracing.Tracer()
    with tracing.patched(tracing.layer_wrappers(tracer)):
        traced = harness.run_ber_sweep(cfg)
    assert traced == plain
    summary = tracer.summary()
    assert summary["harness.run_ber_sweep"][0] == 1
    assert summary["channel.sample_channel"][0] == 50
    assert summary["channel.StreamBank.trial"][0] == 100
    assert summary["pb_link.transmit_pb"][0] == 50
    assert summary["analysis.analytic_abep"][0] == 1
    assert sum(tracer.observed["channel.sample_channel"]) == 50 * (8 * 2 + 8) * 16


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_highest_supported_percentile_keeps_ten_samples_beyond(n, expected):
    assert checks.highest_supported_percentile(n) == expected


def test_wilson_band_check():
    # 1000 errors in 1e5 bits: interval about [0.0091, 0.0110].
    assert checks.wilson_band_ok(1000, 100_000, 0.01)
    assert checks.wilson_band_ok(1000, 100_000, 0.0080)  # band reaches up to 0.0104
    assert not checks.wilson_band_ok(1000, 100_000, 0.0060)  # rate clearly above 1.3x
    assert not checks.wilson_band_ok(1000, 100_000, 0.0200)  # rate clearly below 0.7x
    # One-sided: only a rate clearly below the closed form fails.
    assert checks.wilson_band_ok(1000, 100_000, 0.0060, one_sided=True)
    assert not checks.wilson_band_ok(1000, 100_000, 0.0200, one_sided=True)
    # Few trials give a wide interval that overlaps almost any band.
    assert checks.wilson_band_ok(1, 100, 0.05)


def test_corrected_walls_divide_out_the_host_slowdown():
    fast = measure.Op(0, None, 0.1, None, host_s=measure.FAST_PROBE_S)
    slow = measure.Op(0, None, 0.17, None, host_s=1.7 * measure.FAST_PROBE_S)
    assert measure.corrected_walls([fast, slow]) == pytest.approx([0.1, 0.1])


def test_record_problems_flag_inconsistent_records():
    cfg = SimConfig(scheme="pb", n=8, nt=2, snr_db_grid=(-10.0,), trials=20, seed=1)
    records = harness.run_ber_sweep(cfg)
    assert checks.record_problems(cfg, records) == []
    records[0].trials = 19
    assert checks.record_problems(cfg, records)
    assert checks.record_problems(cfg, records * 2)
